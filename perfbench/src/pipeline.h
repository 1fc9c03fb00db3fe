// The benchmark's pipeline: the stages every workload runs, and the
// independent output checks. Workloads differ only in their sizes, which
// decide the stage that dominates (see README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "instrument.h"
#include "live/runspec.h"
#include "workload/generator.h"

namespace ecgf::perfbench {

/// Sizes of one workload. Every workload runs every stage.
struct WorkloadSpec {
  std::string name;
  // GT-ITM testbed and its request stream.
  std::size_t caches = 0;
  std::size_t groups = 0;
  std::size_t documents = 0;
  double duration_ms = 0.0;
  double requests_per_cache_per_s = 0.0;
  workload::StreamProfile profile = workload::StreamProfile::kExact;
  /// Testbed builds per run; setup_s is their median.
  std::size_t setup_reps = 0;
  /// Formations per round; formation_s is the median call.
  std::size_t formation_reps = 0;
  /// Churn (leave/rejoin), RTT drift and thin access links.
  bool stress = false;
  // Live stage: a coordinator plus two members over loopback.
  std::uint32_t live_caches = 0;
  std::uint32_t live_groups = 0;
  std::uint32_t live_documents = 0;
  double live_duration_ms = 0.0;
  double live_requests_per_cache_per_s = 0.0;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workload_specs();

/// Failed-operation accounting (printed by every run).
struct OpCounts {
  std::uint64_t requests_fed = 0;
  std::uint64_t requests_resolved = 0;
  std::uint64_t formations_attempted = 0;
  std::uint64_t formations_valid = 0;
  std::uint64_t members_started = 0;
  std::uint64_t members_lost = 0;

  std::uint64_t attempted() const {
    return requests_fed + formations_attempted + members_started;
  }
  std::uint64_t failed() const {
    return (requests_fed - requests_resolved) +
           (formations_attempted - formations_valid) + members_lost;
  }
};

/// Per-run sample store: each stage appends one value per call; the run
/// reports medians (times) or the last value (exact counts).
using Samples = std::map<std::string, std::vector<double>>;

class Pipeline {
 public:
  Pipeline(const WorkloadSpec& spec, std::uint64_t seed);
  ~Pipeline();

  /// Build the GT-ITM testbed (topology, placement, RTT matrix, catalog,
  /// stream). Returns its wall time in seconds. The last build is kept.
  double build_testbed(SpanLog& spans, Samples& layer);

  /// Once per run, untimed: the live oracle and the request count of a
  /// separate drain of the identically seeded stream.
  void prepare(Samples& layer, SpanLog& spans);

  /// One round of every stage, with `formations` formation repetitions.
  /// End-to-end samples go to `e2e`, layer samples to `layer` (only when
  /// `traced`). Returns the round's wall time without the reference-only
  /// 2-thread serve.
  double round(bool traced, std::size_t formations, Samples& e2e,
               Samples& layer, SpanLog& spans);

  /// Checks made once after the rounds (gicost against a random
  /// partition drawn here).
  void finish(Samples& e2e);

  const OpCounts& ops() const { return ops_; }
  /// Failed checks, one line each; empty when every check passed.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  struct Testbed;
  struct Formed;

  Formed form(std::size_t rep, bool traced, Samples& layer, SpanLog& spans);
  void serve(const Formed& formed, bool traced, Samples& e2e, Samples& layer,
             SpanLog& spans);
  void live_stage(bool traced, Samples& layer, SpanLog& spans);
  void check(bool ok, const std::string& what);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::unique_ptr<Testbed> testbed_;
  std::shared_ptr<const core::GroupingScheme> scheme_;
  live::RunSpec live_spec_;
  std::string oracle_bytes_;
  std::uint64_t drained_requests_ = 0;
  /// Each formation repetition's partition, from the first round.
  std::vector<std::vector<std::vector<std::uint32_t>>> partitions_;
  std::string serve_bytes_;  ///< first round's sequential report
  double reference_s_ = 0.0;  ///< this round's reference-only work
  OpCounts ops_;
  std::vector<std::string> failures_;
};

}  // namespace ecgf::perfbench
