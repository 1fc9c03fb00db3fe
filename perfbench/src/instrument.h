// Instrumentation owned by the benchmark: a span recorder and pass-through
// wrappers around the three interfaces the program accepts from outside
// (net::RttProvider, workload::WorkloadSource, sim::ControlHook).
//
// Nothing here changes what the program computes. The wrappers forward
// every call unchanged; they only count calls and, when timing is on, add
// up the wall time spent inside them. Spans are kept in memory and written
// once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "net/rtt_provider.h"
#include "sim/control.h"
#include "workload/stream.h"

namespace ecgf::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span log: (name, start, end, parent) per recorded call.
/// Disabled recorders cost one branch per span.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int open(std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id`; returns its duration in seconds (0 when disabled).
  double close(int id) {
    if (!enabled_ || id < 0) return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return s.end_s - s.start_s;
  }

  /// One JSON object: {"spans":[{"name":..,"start_s":..,"end_s":..,
  /// "parent":..},...]}.
  void write_json(std::ostream& os) const {
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
         << ",\"parent\":" << s.parent << "}";
    }
    os << "\n]}\n";
  }

 private:
  double now_s() const { return seconds_since(epoch_); }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span. finish() closes it early and returns its duration in
/// seconds (0 when the log is disabled or the span is already closed).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double finish() {
    if (done_) return 0.0;
    done_ = true;
    return log_.close(id_);
  }

 private:
  SpanLog& log_;
  int id_;
  bool done_ = false;
};

/// Counts (and optionally times) the ground-truth RTT reads that pass
/// through it. The prober reads the provider once per measurement, so the
/// probe packets it sends are calls() × probes_per_measurement.
class CountingRttProvider final : public net::RttProvider {
 public:
  CountingRttProvider(const net::RttProvider& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  std::size_t host_count() const override { return inner_.host_count(); }
  double rtt_ms(net::HostId a, net::HostId b) const override {
    ++calls_;
    if (!timed_) return inner_.rtt_ms(a, b);
    const auto t0 = Clock::now();
    const double v = inner_.rtt_ms(a, b);
    seconds_ += seconds_since(t0);
    return v;
  }
  double rtt_ms_at(net::HostId a, net::HostId b, double t) const override {
    ++calls_;
    return inner_.rtt_ms_at(a, b, t);
  }

  std::uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  const net::RttProvider& inner_;
  bool timed_;
  mutable std::uint64_t calls_ = 0;
  mutable double seconds_ = 0.0;
};

/// Totals shared by every request stream a CountingWorkload hands out.
struct StreamTally {
  std::uint64_t requests = 0;
  double pull_s = 0.0;
};

class CountingRequestSource final : public workload::RequestSource {
 public:
  CountingRequestSource(std::unique_ptr<workload::RequestSource> inner,
                        StreamTally& tally, bool timed)
      : inner_(std::move(inner)), tally_(tally), timed_(timed) {}

  bool next(workload::Request& out, std::uint64_t& key) override {
    bool ok = false;
    if (timed_) {
      const auto t0 = Clock::now();
      ok = inner_->next(out, key);
      tally_.pull_s += seconds_since(t0);
    } else {
      ok = inner_->next(out, key);
    }
    if (ok) ++tally_.requests;
    return ok;
  }
  double peek_time_ms() const override { return inner_->peek_time_ms(); }
  std::uint64_t peek_key() const override { return inner_->peek_key(); }

 private:
  std::unique_ptr<workload::RequestSource> inner_;
  StreamTally& tally_;
  bool timed_;
};

/// Forwards a WorkloadSource and wraps every request stream it partitions
/// out, so pulls are counted whichever driver consumes them.
class CountingWorkload final : public workload::WorkloadSource {
 public:
  CountingWorkload(workload::WorkloadSource& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  double duration_ms() const override { return inner_.duration_ms(); }
  std::size_t cache_count() const override { return inner_.cache_count(); }
  const std::vector<workload::Update>& updates() const override {
    return inner_.updates();
  }
  std::vector<std::unique_ptr<workload::RequestSource>> partition(
      std::size_t shards, const workload::ShardOfCache& shard_of,
      double from_ms) override {
    auto parts = inner_.partition(shards, shard_of, from_ms);
    for (auto& p : parts) {
      p = std::make_unique<CountingRequestSource>(std::move(p), tally_,
                                                  timed_);
    }
    return parts;
  }

  const StreamTally& tally() const { return tally_; }

 private:
  workload::WorkloadSource& inner_;
  bool timed_;
  StreamTally tally_;
};

/// Forwards every control-plane callback; counts ticks and times them.
class CountingHook final : public sim::ControlHook {
 public:
  explicit CountingHook(sim::ControlHook& inner) : inner_(inner) {}

  void on_start(sim::GroupHost& host) override { inner_.on_start(host); }
  void on_rtt_sample(net::HostId src, net::HostId dst, double rtt_ms,
                     double time_ms) override {
    inner_.on_rtt_sample(src, dst, rtt_ms, time_ms);
  }
  void on_leave(cache::CacheIndex cache, double time_ms) override {
    ++leaves_;
    inner_.on_leave(cache, time_ms);
  }
  void on_join(cache::CacheIndex cache, std::uint32_t group,
               double time_ms) override {
    ++joins_;
    inner_.on_join(cache, group, time_ms);
  }
  void on_tick(sim::GroupHost& host, double time_ms) override {
    ++ticks_;
    const auto t0 = Clock::now();
    inner_.on_tick(host, time_ms);
    tick_s_ += seconds_since(t0);
  }

  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t leaves() const { return leaves_; }
  std::uint64_t joins() const { return joins_; }
  double tick_s() const { return tick_s_; }

 private:
  sim::ControlHook& inner_;
  std::uint64_t ticks_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t joins_ = 0;
  double tick_s_ = 0.0;
};

}  // namespace ecgf::perfbench
