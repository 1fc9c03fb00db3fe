#include "shard/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.h"

namespace ecgf::shard {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Completion-heap order: (time, request index) — EventClass::kCompletion
/// is implied. std::*_heap builds max-heaps, so this compares "later".
struct LaterCompletion {
  bool operator()(const sim::Completion& a, const sim::Completion& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.request_index > b.request_index;
  }
};

}  // namespace

std::vector<Barrier> canonical_barriers(
    const sim::SimulationConfig& config,
    const std::vector<workload::Update>& updates, double duration_ms) {
  std::vector<Barrier> barriers;
  for (std::size_t f = 0; f < config.failures.size(); ++f) {
    barriers.push_back(Barrier{config.failures[f].time_ms,
                               sim::EventClass::kFailure, f, f});
  }
  for (std::size_t m = 0; m < config.membership_events.size(); ++m) {
    barriers.push_back(Barrier{config.membership_events[m].time_ms,
                               sim::EventClass::kMembership, m, m});
  }
  for (std::size_t u = 0; u < updates.size(); ++u) {
    barriers.push_back(
        Barrier{updates[u].time_ms, sim::EventClass::kUpdate, u, u});
  }
  // Iterative accumulation, not k·interval: the sequential driver
  // schedules each tick from the previous one's time.
  const auto chain = [&](double interval, sim::EventClass klass) {
    double t = interval;
    for (std::uint64_t k = 0;; ++k) {
      barriers.push_back(Barrier{t, klass, k, static_cast<std::size_t>(k)});
      const double next = t + interval;
      if (next > duration_ms) break;
      t = next;
    }
  };
  if (config.control_hook != nullptr && config.control_interval_ms > 0.0) {
    chain(config.control_interval_ms, sim::EventClass::kControlTick);
  }
  if (config.directory == sim::DirectoryMode::kSummary &&
      config.summary.refresh_interval_ms > 0.0) {
    chain(config.summary.refresh_interval_ms,
          sim::EventClass::kSummaryRefresh);
  }
  std::sort(barriers.begin(), barriers.end(),
            [](const Barrier& a, const Barrier& b) {
              if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
              if (a.klass != b.klass) return a.klass < b.klass;
              return a.key < b.key;
            });
  return barriers;
}

EpochSchedule::EpochSchedule(std::vector<Barrier> barriers, double pinned_ms)
    : barriers_(std::move(barriers)), pinned_ms_(pinned_ms) {
  ECGF_EXPECTS(pinned_ms_ >= 0.0);
  if (pinned_ms_ > 0.0) width_ms_ = initial_ms_ = pinned_ms_;
}

void EpochSchedule::derive_width(const ShardPlan& plan,
                                 const sim::ShardableEngine& engine) {
  if (pinned_ms_ > 0.0) return;
  start_width(min_cross_shard_rtt_ms(
      plan, engine.rtt(), engine.cache_count(), /*exact_limit=*/4096,
      [&engine](cache::CacheIndex c) { return !engine.is_down(c); }));
}

void EpochSchedule::start_width(double lookahead_ms) {
  if (pinned_ms_ > 0.0) return;
  // The derived value is a starting point, not a ceiling: adaptation
  // widens from here, which keeps cut counts low when the lookahead is
  // tiny.
  if (!std::isfinite(lookahead_ms)) lookahead_ms = kCapMs;
  width_ms_ = initial_ms_ = std::clamp(lookahead_ms, kFloorMs, kCapMs);
}

Cut EpochSchedule::next_cut(double earliest_ms) const {
  const bool have_barrier = next_ < barriers_.size();
  if (!have_barrier && earliest_ms == kInf) {
    return Cut{now_ms_, Cut::Kind::kFinal};
  }
  // Null-message rule, group-aligned: no shard can be influenced before
  // the next barrier, so the cut may jump to the earliest pending event
  // plus one epoch (bounding effect-buffer growth), or straight to the
  // barrier.
  const double epoch_target = earliest_ms == kInf
                                  ? kInf
                                  : std::max(now_ms_, earliest_ms) + width_ms_;
  if (have_barrier && barriers_[next_].time_ms <= epoch_target) {
    return Cut{barriers_[next_].time_ms, Cut::Kind::kBarrier};
  }
  return Cut{epoch_target, Cut::Kind::kEpoch};
}

void EpochSchedule::commit(const Cut& cut, std::size_t exchanged) {
  now_ms_ = cut.time_ms;
  if (cut.kind != Cut::Kind::kEpoch || pinned_ms_ > 0.0) return;
  if (exchanged == 0) {
    width_ms_ = std::min(width_ms_ * 4.0, kCapMs);
  } else if (exchanged < kEffectBatchTarget) {
    width_ms_ = std::min(width_ms_ * 2.0, kCapMs);
  } else if (exchanged > 4 * kEffectBatchTarget) {
    width_ms_ = std::max(width_ms_ / 2.0, initial_ms_);
  }
}

const Barrier* EpochSchedule::take_barrier(const Cut& cut) {
  if (cut.kind != Cut::Kind::kBarrier || next_ == barriers_.size() ||
      barriers_[next_].time_ms != cut.time_ms) {
    return nullptr;
  }
  return &barriers_[next_++];
}

double Lane::earliest() const {
  // Streams emit in nondecreasing time, so the peeked head is the
  // minimum; kNoEvent (+inf) marks a drained stream.
  const double at = source_->peek_time_ms();
  return completions_.empty() ? at : std::min(at, completions_.front().time);
}

WindowCount Lane::run_window(double cut, sim::ShardableEngine& engine,
                             ShardSink& sink) {
  WindowCount n;
  for (;;) {
    // Peek only: the request is generated (and its per-cache RNG draws
    // consumed) at the moment it executes, never before. Streams are
    // lane-private, so pulling from pool workers is race-free.
    const double at = source_->peek_time_ms();
    // Canonical tie-break: kCompletion (5) sorts before kArrival (6) at
    // equal times, so the completion wins ties.
    const bool completion =
        !completions_.empty() && completions_.front().time <= at;
    const double t = completion ? completions_.front().time : at;
    if (!(t < cut)) break;
    if (completion) {
      std::pop_heap(completions_.begin(), completions_.end(),
                    LaterCompletion{});
      const sim::Completion c = completions_.back();
      completions_.pop_back();
      sink.begin_event(c.time, sim::EventClass::kCompletion, c.request_index);
      engine.on_complete(c, sink);
    } else {
      workload::Request r;
      std::uint64_t key = 0;
      source_->next(r, key);
      sink.begin_event(r.time_ms, sim::EventClass::kArrival, key);
      add_completion(engine.on_request(key, r, r.time_ms, sink));
      ++n.arrivals;
    }
    ++n.executed;
  }
  return n;
}

void Lane::add_completion(const sim::Completion& c) {
  completions_.push_back(c);
  std::push_heap(completions_.begin(), completions_.end(), LaterCompletion{});
}

}  // namespace ecgf::shard
