// Live-mode bench: coordinator in-process, members as REAL forked OS
// processes on loopback, swept over member counts, against the sequential
// oracle on the same RunSpec.
//
// Reports per member count: wall time, events/sec, cuts, windows, probe
// round trips — and the determinism verdict (live report JSONL ==
// sequential oracle JSONL, byte for byte), which is the headline claim of
// live mode, not a performance number. Live mode trades latency for
// process isolation; events/sec BELOW the sequential baseline is the
// expected shape (every window and barrier pays real socket round trips),
// so the shape checks gate on identity and completion, not speedup.
//
// Writes BENCH_live.json (schema ecgf-bench-live/1). When the sandbox
// forbids loopback sockets or ECGF_SKIP_LIVE=1 is set, the bench emits a
// waiver JSON (mode "skipped" plus the reason) and exits 0 so check.sh
// can still lint the schema without a network-capable container.
//
// --smoke shrinks the sweep for CI; --json-out=FILE sets the output path;
// --trace-out / --prof-out as everywhere; --help lists the flags, and an
// unknown flag exits 2 before anything runs.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "live/coordinator.h"
#include "live/member.h"
#include "live/runspec.h"
#include "bench_common.h"
#include "live/sock.h"
#include "obs/export.h"

namespace ecgf {
namespace {

void shape_check(const std::string& claim, bool ok) {
  std::cout << "# shape-check: " << (ok ? "PASS" : "FAIL") << " — " << claim
            << '\n';
}

live::RunSpec bench_spec(bool smoke) {
  live::RunSpec spec;
  spec.seed = 2006;
  spec.cache_count = smoke ? 16u : 32u;
  spec.group_count = 4;
  spec.document_count = smoke ? 200u : 400u;
  spec.duration_ms = smoke ? 8'000.0 : 30'000.0;
  spec.requests_per_cache_per_s = 4.0;
  spec.num_landmarks = 5;
  spec.qualify = 1;
  return spec;
}

struct Entry {
  std::uint32_t members = 0;  ///< 0 = sequential oracle baseline
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t cuts = 0;
  std::uint64_t windows = 0;
  std::uint64_t probes = 0;
  bool identical = true;
  std::string report_jsonl;
};

/// Fork `members` child processes, each running one live::MemberProcess
/// to completion (then _exit, skipping atexit handlers — the child shares
/// this process's stdio and must not flush its buffers). The parent runs
/// the coordinator and reaps every child.
Entry run_live(const live::RunSpec& spec, std::uint32_t members) {
  Entry e;
  e.members = members;
  live::CoordinatorOptions options;
  options.members = members;
  live::Coordinator coordinator(spec, options);
  const std::uint16_t port = coordinator.port();

  std::vector<pid_t> children;
  children.reserve(members);
  for (std::uint32_t m = 0; m < members; ++m) {
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int rc = 1;
      try {
        live::MemberOptions mo;
        mo.port = port;
        rc = live::MemberProcess(mo).run();
      } catch (...) {
        rc = 1;
      }
      _exit(rc);
    }
    children.push_back(pid);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const live::LiveRunResult result = coordinator.run();
  const auto t1 = std::chrono::steady_clock::now();

  bool children_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      children_ok = false;
    }
  }
  if (!children_ok) throw std::runtime_error("a member process failed");

  e.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  e.events = result.report.events_executed;
  e.events_per_sec =
      e.wall_ms > 0.0 ? static_cast<double>(e.events) / (e.wall_ms / 1e3)
                      : 0.0;
  e.cuts = result.cuts;
  e.windows = result.windows;
  e.probes = result.probes;
  std::ostringstream out;
  obs::write_report_jsonl(out, result.report, "live");
  e.report_jsonl = out.str();
  return e;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_waiver(const std::string& json_out, const std::string& reason) {
  std::ofstream out(json_out);
  out << "{\n  \"schema\": \"ecgf-bench-live/1\",\n  \"mode\": \"skipped\","
      << "\n  \"reason\": \"" << json_escape(reason)
      << "\",\n  \"entries\": []\n}\n";
  std::cout << "live bench skipped: " << reason << " (wrote " << json_out
            << ")\n";
}

}  // namespace
}  // namespace ecgf

int main(int argc, char** argv) {
  using namespace ecgf;
  util::Flags flags;
  flags.define_bool("smoke", "shrink the sweep for CI");
  flags.define("json-out", "write the JSON report here", "BENCH_live.json");
  flags.define("trace-out", "write the structured event trace (JSONL)", "");
  flags.define("prof-out", "write per-phase wall-time stats (JSON)", "");
  if (const auto rc = bench::parse_flags(flags, argc, argv)) return *rc;
  obs::ObsSession obs_session(flags.get("trace-out"), flags.get("prof-out"));
  const bool smoke = flags.get_bool("smoke");
  const std::string json_out = flags.get("json-out");

  if (live::skip_live_requested()) {
    write_waiver(json_out, "ECGF_SKIP_LIVE=1");
    return 0;
  }
  if (!live::sockets_available()) {
    write_waiver(json_out, "loopback sockets unavailable in this sandbox");
    return 0;
  }

  const live::RunSpec spec = bench_spec(smoke);
  const std::vector<std::uint32_t> member_counts =
      smoke ? std::vector<std::uint32_t>{1, 2, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};

  std::cout << "Live distributed-mode bench (" << (smoke ? "smoke" : "full")
            << "): " << spec.cache_count << " caches, "
            << spec.duration_ms / 1000.0 << "s workload\n";

  // Sequential oracle baseline — also the byte-identity reference.
  const auto o0 = std::chrono::steady_clock::now();
  const live::OracleResult oracle = live::run_oracle(spec);
  const auto o1 = std::chrono::steady_clock::now();
  Entry baseline;
  baseline.members = 0;
  baseline.wall_ms =
      std::chrono::duration<double, std::milli>(o1 - o0).count();
  baseline.events = oracle.report.events_executed;
  baseline.events_per_sec =
      baseline.wall_ms > 0.0
          ? static_cast<double>(baseline.events) / (baseline.wall_ms / 1e3)
          : 0.0;
  {
    std::ostringstream out;
    obs::write_report_jsonl(out, oracle.report, "live");
    baseline.report_jsonl = out.str();
  }

  std::vector<Entry> entries;
  entries.push_back(baseline);
  bool all_identical = true;
  for (const std::uint32_t members : member_counts) {
    Entry e = run_live(spec, members);
    e.identical = e.report_jsonl == baseline.report_jsonl;
    all_identical = all_identical && e.identical;
    std::cout << "  members=" << members << ": " << e.wall_ms << " ms, "
              << e.events << " events, " << e.cuts << " cuts, " << e.windows
              << " windows, " << e.probes << " probes, report "
              << (e.identical ? "IDENTICAL" : "DIVERGED") << "\n";
    entries.push_back(std::move(e));
  }

  shape_check("every live member count reproduces the sequential oracle's "
              "report byte-for-byte",
              all_identical);
  shape_check("all member processes exited cleanly across the sweep", true);

  std::ofstream out(json_out);
  out << "{\n  \"schema\": \"ecgf-bench-live/1\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full")
      << "\",\n  \"caches\": " << spec.cache_count
      << ",\n  \"duration_ms\": " << spec.duration_ms
      << ",\n  \"peak_rss_bytes\": " << bench::peak_rss_bytes()
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\"driver\": \""
        << (e.members == 0 ? "sequential" : "live") << "\", \"members\": "
        << e.members << ", \"wall_ms\": " << e.wall_ms
        << ", \"events\": " << e.events
        << ", \"events_per_sec\": " << e.events_per_sec
        << ", \"cuts\": " << e.cuts << ", \"windows\": " << e.windows
        << ", \"probes\": " << e.probes << ", \"report_identical\": "
        << (e.identical ? "true" : "false") << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_out << "\n";
  return all_identical ? 0 : 1;
}
