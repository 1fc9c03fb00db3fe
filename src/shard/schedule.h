// The conservative-PDES schedule shared by every epoch driver: the
// in-process shard::ShardedSimulator (shards on pool threads) and the
// live::Coordinator / live::MemberProcess pair (shards in other
// processes). Both drivers consume these two pieces; neither carries its
// own copy.
//
//   * EpochSchedule — the coordinator side: the canonical barrier list,
//     the epoch width (seeded from the cross-shard lookahead, then adapted
//     to the exchanged effect volume), and the choice of the next cut.
//   * Lane — one shard's side: its peeked request stream, its completion
//     min-heap, and the window loop that executes every event strictly
//     before a cut.
//
// Correctness never depends on the schedule: group-aligned sharding routes
// all cross-shard influence through barriers, so any cut sequence yields
// the same output bytes (docs/scaling.md). The schedule only trades cut
// count against effect-buffer size.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "shard/exchange.h"
#include "shard/plan.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "workload/stream.h"

namespace ecgf::shard {

/// A coordinator-executed event that synchronises all shards.
struct Barrier {
  double time_ms;
  sim::EventClass klass;
  std::uint64_t key;  ///< canonical tie-break key
  std::size_t index;  ///< index into the source list (updates/failures/…)
};

/// Every barrier of a run — failures, membership changes, origin updates,
/// control ticks (when a control hook is attached) and summary refreshes
/// (summary directory) — sorted in canonical (time, EventClass, key)
/// order, the order the sequential driver's keyed queue pops them in.
/// Tick chains accumulate iteratively (t += interval, stopping once the
/// next tick would pass `duration_ms`), reproducing the sequential
/// driver's float arithmetic exactly.
std::vector<Barrier> canonical_barriers(
    const sim::SimulationConfig& config,
    const std::vector<workload::Update>& updates, double duration_ms);

/// The next synchronisation cut. Windows execute every event strictly
/// before `time_ms`; a barrier cut then executes the barriers due at
/// `time_ms`; the final cut ends the run.
struct Cut {
  enum class Kind : std::uint8_t { kEpoch, kBarrier, kFinal };
  double time_ms = 0.0;
  Kind kind = Kind::kEpoch;
};

class EpochSchedule {
 public:
  /// Clamp range of the derived width. The floor guards degenerate
  /// lookahead (near-zero cross-shard RTTs); the cap bounds effect-buffer
  /// memory between cuts.
  static constexpr double kFloorMs = 1.0;
  static constexpr double kCapMs = 1'000.0;
  /// Effect volume per epoch that adaptation steers toward.
  static constexpr std::size_t kEffectBatchTarget = 8192;

  EpochSchedule() = default;
  /// `pinned_ms` > 0 fixes the width for the whole run: no derivation, no
  /// adaptation (reproduces an exact cut schedule). 0 derives and adapts.
  explicit EpochSchedule(std::vector<Barrier> barriers,
                         double pinned_ms = 0.0);

  /// (Re)seed the width from the CMB lookahead of `plan`: the minimum
  /// cross-shard RTT over caches that are not down (down and departed
  /// caches generate no cross-shard influence). A pinned width is kept.
  void derive_width(const ShardPlan& plan, const sim::ShardableEngine& engine);
  /// Seed the width from a lookahead value: clamped to [kFloorMs, kCapMs],
  /// +inf (no cross-shard pair) maps to the cap. A pinned width is kept.
  void start_width(double lookahead_ms);

  /// The next cut, given the earliest pending event across every lane
  /// (+inf when all are drained). The cut jumps to the next barrier or to
  /// max(now, earliest) + width, whichever comes first; it is final
  /// exactly when no barrier is left and nothing is pending.
  Cut next_cut(double earliest_ms) const;

  /// Commit `cut` once its windows ran and `exchanged` effects were
  /// merged: advance the clock and, after a pure epoch cut, adapt the
  /// width — x4 when nothing was exchanged, x2 under kEffectBatchTarget,
  /// halved past 4x the target, always within [initial width, kCapMs].
  /// Decisions depend only on simulated content, so the schedule is the
  /// same at any thread or member count.
  void commit(const Cut& cut, std::size_t exchanged);

  /// The next barrier due at a committed barrier cut, in canonical order;
  /// nullptr once that instant's batch is done (or for any other cut).
  const Barrier* take_barrier(const Cut& cut);

  double now_ms() const { return now_ms_; }
  /// Stable pointer to the clock (the time of the last committed cut).
  const double* clock_ptr() const { return &now_ms_; }
  double width_ms() const { return width_ms_; }
  double initial_width_ms() const { return initial_ms_; }

 private:
  std::vector<Barrier> barriers_;
  std::size_t next_ = 0;
  double pinned_ms_ = 0.0;
  double width_ms_ = 0.0;
  double initial_ms_ = 0.0;
  double now_ms_ = 0.0;
};

/// Events one window executed (summed into the report's totals).
struct WindowCount {
  std::uint64_t executed = 0;
  std::uint64_t arrivals = 0;
};

/// One shard's event state: its lazy request stream plus its min-heap of
/// in-flight completions. The stream is peeked (never popped) for
/// head-time comparisons, so the generator state inside the
/// WorkloadSource always reflects exactly the executed prefix — which is
/// what lets a reshard re-partition mid-run without replaying anything.
class Lane {
 public:
  Lane() = default;
  explicit Lane(std::unique_ptr<workload::RequestSource> source)
      : source_(std::move(source)) {}

  /// Earliest pending event (+inf when drained).
  double earliest() const;
  /// True when the lane has an event strictly before `cut`; only such
  /// lanes are dispatched.
  bool due_before(double cut) const { return earliest() < cut; }

  /// Execute every event strictly before `cut` in canonical order,
  /// buffering effects into `sink`.
  WindowCount run_window(double cut, sim::ShardableEngine& engine,
                         ShardSink& sink);

  /// In-flight completions (heap order), for re-homing at a reshard.
  const std::vector<sim::Completion>& completions() const {
    return completions_;
  }
  void add_completion(const sim::Completion& c);

 private:
  std::unique_ptr<workload::RequestSource> source_;
  std::vector<sim::Completion> completions_;  ///< min-heap (std::*_heap)
};

}  // namespace ecgf::shard
