// ecgf_bench — the end-to-end benchmark driver.
//
//   ecgf_bench --workload=NAME[,NAME...] --seed=N --seconds=S --trace=0|1
//              [--spans-out=FILE]
//
// Untraced runs (--trace=0) time every end-to-end metric; traced runs
// (--trace=1) pair each untraced round with a traced one and report the
// per-layer metrics plus the tracing overhead. The last line of standard
// output is one JSON object per workload: {"correct", "attempted",
// "failed", "metrics"}. Unknown flags, stray arguments and unknown
// workload names exit 2 after printing --help; a failed output check
// exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "pipeline.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace ecgf::perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Mirrors "end_to_end" in BENCHMARK.json (run.py checks the two agree).
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"formation_s", "s"},
    {"seq_events_per_s", "1/s"},
    {"sharded_events_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"avg_latency_ms", "ms"},
    {"p99_latency_ms", "ms"},
    {"avg_miss_latency_ms", "ms"},
    {"group_hit_rate", "ratio"},
    {"gicost_ms", "ms"},
    {"formation_probes", "count"},
    {"maintenance_probes", "count"},
};

// Mirrors "per_layer" in BENCHMARK.json.
const std::vector<Metric> kPerLayer = {
    {"topology.build_s", "s"},
    {"net.rtt_matrix_s", "s"},
    {"prof.topology.dijkstra.mean_s", "s"},
    {"workload.build_s", "s"},
    {"net.probe_calls", "count"},
    {"net.probe_s", "s"},
    {"landmark.select_s", "s"},
    {"landmark.probes", "count"},
    {"coords.position_s", "s"},
    {"coords.probes", "count"},
    {"prof.core.positioning.mean_s", "s"},
    {"cluster.kmeans_s", "s"},
    {"cluster.kmeans_iterations", "count"},
    {"cluster.wcss", "ms2"},
    {"prof.cluster.kmeans.mean_s", "s"},
    {"core.formation_s", "s"},
    {"workload.pull_s", "s"},
    {"workload.requests", "count"},
    {"workload.updates", "count"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_request", "ratio"},
    {"cache.local_hits", "count"},
    {"cache.group_hits", "count"},
    {"cache.origin_fetches", "count"},
    {"cache.invalidations", "count"},
    {"netmodel.drops", "count"},
    {"netmodel.marks", "count"},
    {"netmodel.retransmits", "count"},
    {"shard.run_s", "s"},
    {"shard.cuts", "count"},
    {"shard.windows", "count"},
    {"shard.merges_skipped", "count"},
    {"shard.speedup_2t", "ratio"},
    {"ctl.tick_s", "s"},
    {"prof.ctl.tick.mean_s", "s"},
    {"ctl.ticks", "count"},
    {"ctl.repairs", "count"},
    {"ctl.reforms", "count"},
    {"ctl.regroupings", "count"},
    {"live.setup_s", "s"},
    {"live.run_s", "s"},
    {"live.events_per_s", "1/s"},
    {"live.cuts", "count"},
    {"live.windows", "count"},
    {"live.barriers", "count"},
    {"live.oracle_s", "s"},
    {"trace.overhead", "ratio"},
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Mean seconds per call of one obs::ProfileRegistry scope (0 if unseen).
/// The traced run enables the registry for its whole length, so the mean
/// covers the untraced and the traced rounds alike.
double profile_mean_s(const std::string& scope) {
  for (const auto& [name, stat] : obs::ProfileRegistry::global().snapshot()) {
    if (name == scope) return stat.mean_ms() / 1e3;
  }
  return 0.0;
}

/// Runs one workload and prints its result; returns true when correct.
bool run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds, bool traced, const std::string& spans_out) {
  SpanLog spans(traced);
  SpanLog untraced_spans(false);
  Pipeline pipeline(spec, seed);
  Samples e2e;
  Samples layer;
  if (traced) {
    util::set_prof_enabled(true);
    obs::ProfileRegistry::global().reset();
  }

  for (std::size_t i = 0; i < spec.setup_reps; ++i) {
    e2e["setup_s"].push_back(pipeline.build_testbed(spans, layer));
  }
  pipeline.prepare(layer, spans);

  const auto t0 = Clock::now();
  std::size_t rounds = 0;
  do {
    if (!traced) {
      pipeline.round(false, spec.formation_reps, e2e, layer, untraced_spans);
    } else {
      // The untraced half of the pair is the overhead baseline and the
      // reference the traced half's report bytes are checked against; both
      // halves form groups once, so they do the same work.
      Samples scratch_e2e;
      Samples scratch_layer;
      const double plain =
          pipeline.round(false, 1, scratch_e2e, scratch_layer, untraced_spans);
      const double with_trace = pipeline.round(true, 1, scratch_e2e, layer, spans);
      layer["trace.overhead"].push_back(with_trace / plain);
    }
    ++rounds;
  } while (seconds_since(t0) < seconds);
  pipeline.finish(e2e);

  if (traced) {
    layer["prof.topology.dijkstra.mean_s"].push_back(
        profile_mean_s("topology.dijkstra"));
    layer["prof.core.positioning.mean_s"].push_back(
        profile_mean_s("core.positioning"));
    layer["prof.cluster.kmeans.mean_s"].push_back(profile_mean_s("cluster.kmeans"));
    layer["prof.ctl.tick.mean_s"].push_back(profile_mean_s("ctl.tick"));
    util::set_prof_enabled(false);
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      spans.write_json(out);
    }
  }

  std::vector<std::string> failures = pipeline.failures();
  const Samples& samples = traced ? layer : e2e;
  const std::vector<Metric>& metrics = traced ? kPerLayer : kEndToEnd;
  std::ostringstream json;
  json << "\"metrics\": {";
  std::cout << "# workload " << spec.name << " seed " << seed << ", "
            << rounds << " rounds, " << (traced ? "traced" : "untraced")
            << '\n';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const auto it = samples.find(m.name);
    double value = NAN;
    if (it == samples.end() || it->second.empty()) {
      failures.push_back(std::string("no samples for ") + m.name);
    } else {
      value = median(it->second);
      const auto [lo, hi] =
          std::minmax_element(it->second.begin(), it->second.end());
      std::cout << "# " << m.name << " = " << number(value) << ' ' << m.unit
                << " (median of " << it->second.size() << ", min "
                << number(*lo) << ", max " << number(*hi) << ")\n";
    }
    json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << (std::isfinite(value) ? number(value) : "null")
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << '}';

  const OpCounts& ops = pipeline.ops();
  std::cout << "# operations: requests fed " << ops.requests_fed
            << ", resolved " << ops.requests_resolved
            << "; formations attempted " << ops.formations_attempted
            << ", valid " << ops.formations_valid
            << "; live members started " << ops.members_started << ", lost "
            << ops.members_lost << '\n';
  for (const std::string& f : failures) {
    std::cerr << "check failed (" << spec.name << "): " << f << '\n';
  }
  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ops.attempted()
            << ", \"failed\": " << ops.failed() << ", " << json.str() << "}"
            << std::endl;
  return correct;
}

int usage_error(const util::Flags& flags, const std::string& message) {
  std::cerr << "ecgf_bench: " << message << "\n\n"
            << flags.help("ecgf_bench");
  return 2;
}

}  // namespace
}  // namespace ecgf::perfbench

int main(int argc, char** argv) {
  using namespace ecgf;
  using namespace ecgf::perfbench;
  // Every end-to-end timing is single-threaded: K-means restarts and the
  // shard windows run on one thread.
  util::set_configured_threads(1);

  std::string names;
  for (const WorkloadSpec& s : workload_specs()) {
    names += (names.empty() ? "" : ", ") + s.name;
  }
  util::Flags flags;
  flags.define("workload", "comma-separated workloads to run: " + names, "");
  flags.define("seed", "workload seed (a non-negative integer)", "1");
  flags.define("seconds", "measured seconds per workload (whole rounds)",
               "10");
  flags.define("trace", "1 = traced run reporting per-layer metrics", "0");
  flags.define("spans-out", "traced runs: write the span log here", "");

  std::vector<const WorkloadSpec*> chosen;
  std::int64_t seed = 0;
  std::int64_t seconds = 0;
  bool traced = false;
  try {
    if (!flags.parse(argc, argv)) return 0;  // --help
    if (!flags.positional().empty()) {
      return usage_error(flags,
                         "unexpected argument '" + flags.positional()[0] + "'");
    }
    std::stringstream list(flags.get("workload"));
    for (std::string name; std::getline(list, name, ',');) {
      const auto& specs = workload_specs();
      const auto it = std::find_if(specs.begin(), specs.end(),
                                   [&](const auto& s) { return s.name == name; });
      if (it == specs.end()) {
        return usage_error(flags, "unknown workload '" + name + "'");
      }
      chosen.push_back(&*it);
    }
    if (chosen.empty()) return usage_error(flags, "--workload is required");
    seed = flags.get_int("seed");
    seconds = flags.get_int("seconds");
    const std::string trace = flags.get("trace");
    if (seed < 0) return usage_error(flags, "--seed must be >= 0");
    if (seconds < 1) return usage_error(flags, "--seconds must be >= 1");
    if (trace != "0" && trace != "1") {
      return usage_error(flags, "--trace must be 0 or 1");
    }
    traced = trace == "1";
  } catch (const std::exception& e) {
    return usage_error(flags, e.what());
  }

  bool all_correct = true;
  for (const WorkloadSpec* spec : chosen) {
    try {
      all_correct &= run_workload(*spec, static_cast<std::uint64_t>(seed),
                                  static_cast<double>(seconds), traced,
                                  flags.get("spans-out"));
    } catch (const std::exception& e) {
      std::cerr << "ecgf_bench: " << spec->name << " aborted: " << e.what()
                << '\n';
      return 1;
    }
  }
  return all_correct ? 0 : 1;
}
