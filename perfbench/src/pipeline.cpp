#include "pipeline.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>
#include <exception>

#include "cache/catalog.h"
#include "cluster/init.h"
#include "cluster/kmeans.h"
#include "coords/feature_vector.h"
#include "core/network_builder.h"
#include "ctl/maintenance.h"
#include "landmark/factory.h"
#include "live/coordinator.h"
#include "live/member.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "obs/export.h"
#include "schemes/registry.h"
#include "shard/sharded_sim.h"
#include "sim/netmodel/link_model.h"
#include "sim/simulator.h"
#include "topology/attachment.h"
#include "topology/transit_stub.h"
#include "util/rng.h"
#include "workload/stream.h"

namespace ecgf::perfbench {

namespace {

// Paper defaults (§5): L = 25 landmarks, PLSet multiplier M = 2, θ = 2,
// five probes per measurement.
constexpr std::size_t kLandmarks = 25;
constexpr std::size_t kMultiplier = 2;
constexpr double kTheta = 2.0;
constexpr std::size_t kShards = 4;
constexpr std::uint64_t kTestbedSeed = 2006;
constexpr std::uint32_t kLiveMembers = 2;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return workload::stream_detail::mix64(seed * 0x9E3779B97F4A7C15ULL + salt);
}

core::SchemeConfig scheme_config() {
  core::SchemeConfig config;
  config.num_landmarks = kLandmarks;
  config.m_multiplier = kMultiplier;
  config.theta = kTheta;
  return config;
}

net::ProberOptions formation_probing() { return net::ProberOptions{}; }

std::string report_bytes(const sim::SimulationReport& report) {
  std::ostringstream out;
  obs::write_report_jsonl(out, report, "perfbench");
  return out.str();
}

/// True when `groups` partitions [0, n) into exactly `k` non-empty groups.
bool valid_partition(const std::vector<std::vector<std::uint32_t>>& groups,
                     std::size_t n, std::size_t k) {
  if (groups.size() != k) return false;
  std::vector<char> seen(n, 0);
  std::size_t covered = 0;
  for (const auto& g : groups) {
    if (g.empty()) return false;
    for (const std::uint32_t c : g) {
      if (c >= n || seen[c] != 0) return false;
      seen[c] = 1;
      ++covered;
    }
  }
  return covered == n;
}

/// The paper's §2 metric, written out here rather than taken from the
/// program: per group, the mean ground-truth RTT over member pairs; then
/// the mean over groups with at least one pair.
double gicost_ms(const std::vector<std::vector<std::uint32_t>>& groups,
                 const net::RttProvider& truth) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& g : groups) {
    if (g.size() < 2) continue;
    double pair_sum = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        pair_sum += truth.rtt_ms(g[i], g[j]);
      }
    }
    sum += pair_sum / (0.5 * static_cast<double>(g.size() * (g.size() - 1)));
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling process to one CPU; returns false when it cannot.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Restores an affinity mask of several CPUs.
void allow(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    // Every workload also runs a small live stage: a correctness check
    // against the sequential oracle plus the live per-layer metrics.
    WorkloadSpec base;
    base.live_caches = 32;
    base.live_groups = 4;
    base.live_documents = 400;
    base.live_duration_ms = 60'000.0;
    base.live_requests_per_cache_per_s = 25.0;

    std::vector<WorkloadSpec> out;
    WorkloadSpec s = base;
    s.name = "form-large-k";
    s.caches = 2500;
    s.groups = 300;
    s.documents = 2000;
    s.duration_ms = 60'000.0;
    s.requests_per_cache_per_s = 1.0;
    s.profile = workload::StreamProfile::kLean;
    s.setup_reps = 3;
    s.formation_reps = 5;
    out.push_back(s);

    s = base;
    s.name = "serve-dynamic";
    s.caches = 400;
    s.groups = 40;
    s.documents = 4000;
    s.duration_ms = 300'000.0;
    s.requests_per_cache_per_s = 2.0;
    s.setup_reps = 9;
    s.formation_reps = 20;
    out.push_back(s);

    s = base;
    s.name = "churn-congested";
    s.caches = 400;
    s.groups = 40;
    s.documents = 4000;
    s.duration_ms = 300'000.0;
    s.requests_per_cache_per_s = 2.0;
    s.setup_reps = 9;
    s.formation_reps = 20;
    s.stress = true;
    out.push_back(s);
    return out;
  }();
  return specs;
}

struct Pipeline::Testbed {
  std::unique_ptr<core::EdgeNetwork> network;
  std::optional<net::DistanceMatrix> base;  ///< drift base (stress only)
  std::optional<cache::Catalog> catalog;
  workload::WorkloadParams stream_params;
  std::unique_ptr<workload::SyntheticWorkload> stream;  ///< for the drain
};

struct Pipeline::Formed {
  std::vector<std::vector<std::uint32_t>> partition;
  core::GroupingResult result;
};

Pipeline::Pipeline(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec),
      seed_(seed),
      scheme_(schemes::SchemeRegistry::builtin().make("sdsl",
                                                      scheme_config())) {
  live_spec_.seed = derive(seed, 7);
  live_spec_.cache_count = spec.live_caches;
  live_spec_.group_count = spec.live_groups;
  live_spec_.document_count = spec.live_documents;
  live_spec_.duration_ms = spec.live_duration_ms;
  live_spec_.requests_per_cache_per_s = spec.live_requests_per_cache_per_s;
  live_spec_.scheme = 1;  // SDSL
  live_spec_.cache_capacity_bytes = 2ull << 20;
  live_spec_.qualify = 0;
}

Pipeline::~Pipeline() = default;

void Pipeline::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

double Pipeline::build_testbed(SpanLog& spans, Samples& layer) {
  const auto t0 = Clock::now();
  ScopedSpan whole(spans, "setup");
  auto tb = std::make_unique<Testbed>();
  // The network and the document catalog are part of the workload's fixed
  // testbed, like the paper's single GT-ITM topology; --seed draws the
  // stream that runs over it.
  util::Rng topo_rng(derive(kTestbedSeed, spec_.caches));
  util::Rng place_rng(derive(kTestbedSeed, spec_.caches + 1));
  util::Rng catalog_rng(derive(kTestbedSeed, spec_.caches + 2));
  util::Rng stream_rng(derive(seed_, 4));

  ScopedSpan topo_span(spans, "topology.build");
  topology::TransitStubTopology topo = topology::generate_transit_stub(
      core::scaled_topology_for(spec_.caches), topo_rng);
  topology::HostPlacement placement =
      topology::place_hosts(topo, spec_.caches + 1, {}, place_rng);
  const double topo_s = topo_span.finish();

  ScopedSpan rtt_span(spans, "net.rtt_matrix");
  net::DistanceMatrix matrix =
      core::host_rtt_distance_matrix(topo.graph, placement);
  if (spec_.stress) tb->base.emplace(matrix);
  const double rtt_s = rtt_span.finish();
  tb->network = std::make_unique<core::EdgeNetwork>(
      std::move(topo), std::move(placement), std::move(matrix), spec_.caches);

  ScopedSpan wl_span(spans, "workload.build");
  cache::CatalogParams catalog;
  catalog.document_count = spec_.documents;
  tb->catalog.emplace(cache::Catalog::generate(catalog, catalog_rng));
  workload::WorkloadParams& wl = tb->stream_params;
  wl.cache_count = spec_.caches;
  wl.duration_ms = spec_.duration_ms;
  wl.requests_per_cache_per_s = spec_.requests_per_cache_per_s;
  wl.zipf_alpha = 0.9;
  wl.similarity = 0.8;
  wl.profile = spec_.profile;
  tb->stream = std::make_unique<workload::SyntheticWorkload>(
      wl, *tb->catalog, stream_rng);
  const double wl_s = wl_span.finish();
  whole.finish();
  if (spans.enabled()) {
    layer["topology.build_s"].push_back(topo_s);
    layer["net.rtt_matrix_s"].push_back(rtt_s);
    layer["workload.build_s"].push_back(wl_s);
  }
  testbed_ = std::move(tb);
  return seconds_since(t0);
}

void Pipeline::prepare(Samples& layer, SpanLog& spans) {
  // Requests the stream holds, counted by draining a second copy of it.
  {
    auto requests = testbed_->stream->requests();
    workload::Request r;
    std::uint64_t key = 0;
    while (requests->next(r, key)) ++drained_requests_;
    check(drained_requests_ > 0, "the request stream is empty");
  }
  // The live oracle: the sequential simulator on the live run's world.
  ScopedSpan span(spans, "live.oracle");
  const auto t0 = Clock::now();
  const live::OracleResult oracle = live::run_oracle(live_spec_);
  layer["live.oracle_s"].push_back(seconds_since(t0));
  span.finish();
  oracle_bytes_ = report_bytes(oracle.report);
}

Pipeline::Formed Pipeline::form(std::size_t rep, bool traced, Samples& layer,
                                SpanLog& spans) {
  const core::EdgeNetwork& network = *testbed_->network;
  // Repetition 0 forms the grouping the serving stages run on. It belongs
  // to the fixed testbed: serving cost depends strongly on the group
  // sizes, and a seed-drawn grouping would let that swamp the stream's
  // effect. The other repetitions draw their probing and K-means seeds
  // from --seed.
  const std::uint64_t seed = rep == 0 ? kTestbedSeed : seed_;
  CountingRttProvider counted(network.rtt(), traced);
  net::Prober prober(counted, formation_probing(),
                     util::Rng(derive(seed, 100 + 2 * rep)));
  util::Rng rng(derive(seed, 101 + 2 * rep));
  Formed out;
  ++ops_.formations_attempted;
  if (!traced) {
    out.result = scheme_->form_groups(spec_.caches, network.server(),
                                      spec_.groups, prober, rng);
    out.partition = out.result.partition();
  } else {
    // The same SDSL pipeline, one public entry point at a time, so each
    // step gets its own span. It must reproduce form_groups exactly.
    ScopedSpan whole(spans, "core.formation");
    ScopedSpan sel_span(spans, "landmark.select");
    const auto selection =
        landmark::make_selector(landmark::SelectorKind::kGreedy, kMultiplier)
            ->select(spec_.caches, network.server(), kLandmarks, prober, rng);
    layer["landmark.select_s"].push_back(sel_span.finish());
    layer["landmark.probes"].push_back(
        static_cast<double>(prober.probes_sent()));
    const std::size_t probes_after_select = prober.probes_sent();

    ScopedSpan pos_span(spans, "coords.position");
    coords::PositionMap positions = coords::build_feature_vectors(
        spec_.caches + 1, selection.landmarks, prober);
    layer["coords.position_s"].push_back(pos_span.finish());
    layer["coords.probes"].push_back(
        static_cast<double>(prober.probes_sent() - probes_after_select));

    std::vector<double> server_distance;
    cluster::Points points;
    points.reserve(spec_.caches);
    for (net::HostId c = 0; c < spec_.caches; ++c) {
      const auto row = positions.coords(c);
      server_distance.push_back(row[0]);
      points.emplace_back(row.begin(), row.end());
    }
    const core::SchemeConfig config = scheme_config();
    const cluster::ServerDistanceWeightedInit init(server_distance, kTheta,
                                                   config.coverage);
    ScopedSpan km_span(spans, "cluster.kmeans");
    const cluster::KMeansResult km =
        cluster::kmeans(points, spec_.groups, init, rng, config.kmeans);
    layer["cluster.kmeans_s"].push_back(km_span.finish());
    layer["cluster.kmeans_iterations"].push_back(
        static_cast<double>(km.iterations));
    layer["cluster.wcss"].push_back(cluster::within_cluster_ss(points, km));
    layer["core.formation_s"].push_back(whole.finish());

    for (const auto& g : km.groups()) {
      out.partition.emplace_back(g.begin(), g.end());
    }
    // The maintenance plane starts from the formation's landmarks and
    // vectors, which the decomposed steps produced above.
    out.result.landmarks = selection.landmarks;
    out.result.positions = std::move(positions);
    out.result.probes_used = prober.probes_sent();
    out.result.groups.reserve(out.partition.size());
    for (std::size_t g = 0; g < out.partition.size(); ++g) {
      out.result.groups.push_back(
          {static_cast<std::uint32_t>(g), out.partition[g]});
    }
    layer["net.probe_calls"].push_back(static_cast<double>(counted.calls()));
    layer["net.probe_s"].push_back(counted.seconds());
  }

  const bool valid =
      valid_partition(out.partition, spec_.caches, spec_.groups);
  check(valid, "formation is not a partition into k non-empty groups");
  if (valid) ++ops_.formations_valid;
  check(out.result.probes_used ==
            counted.calls() * formation_probing().probes_per_measurement,
        "formation_probes differs from the probes the provider wrapper saw");
  if (partitions_.size() <= rep) {
    partitions_.push_back(out.partition);
  } else {
    check(out.partition == partitions_[rep],
          "a repeated formation on the same seed gave another partition");
  }
  return out;
}

void Pipeline::serve(const Formed& formed, bool traced, Samples& e2e,
                     Samples& layer, SpanLog& spans) {
  const core::EdgeNetwork& network = *testbed_->network;
  const double duration = spec_.duration_ms;

  // Scripted churn: a tenth of the caches leave in the middle third and
  // rejoin a sixth of the run later, so the final partition covers all.
  // The script and the drift permutation are part of the fixed testbed,
  // like the grouping they disturb.
  std::vector<sim::MembershipChange> churn;
  if (spec_.stress) {
    util::Rng churn_rng(derive(kTestbedSeed, 8));
    const auto leavers = churn_rng.sample_indices(spec_.caches,
                                                  spec_.caches / 10);
    for (std::size_t i = 0; i < leavers.size(); ++i) {
      const double t_leave =
          (0.3 + 0.3 * static_cast<double>(i) /
                     static_cast<double>(leavers.size())) *
          duration;
      const auto cache = static_cast<std::uint32_t>(leavers[i]);
      churn.push_back({sim::MembershipChange::Kind::kLeave, cache, t_leave});
      churn.push_back(
          {sim::MembershipChange::Kind::kJoin, cache, t_leave + duration / 6});
    }
    std::stable_sort(churn.begin(), churn.end(),
                     [](const auto& a, const auto& b) {
                       return a.time_ms < b.time_ms;
                     });
  }

  struct Outcome {
    std::string bytes;
    std::vector<int> decisions;
    std::uint64_t maintenance_probes = 0;
    sim::SimulationReport report;
    double wall_s = 0.0;
  };

  // One run of the configured serve on the given driver (threads == 0:
  // the sequential simulator; otherwise the 4-shard simulator).
  auto run = [&](std::size_t threads, const char* span_name) {
    util::Rng stream_rng(derive(seed_, 4));
    workload::SyntheticWorkload stream(testbed_->stream_params,
                                       *testbed_->catalog, stream_rng);
    CountingWorkload counted_stream(stream, traced);
    workload::WorkloadSource& source =
        traced ? static_cast<workload::WorkloadSource&>(counted_stream)
               : stream;

    std::optional<net::DriftingRttProvider> drifting;
    if (spec_.stress) {
      net::DriftOptions drift;
      drift.drift_fraction = 0.5;
      drift.ramp_start_ms = 0.25 * duration;
      drift.ramp_end_ms = 0.75 * duration;
      util::Rng drift_rng(derive(kTestbedSeed, 9));
      drifting.emplace(*testbed_->base, drift, drift_rng);
    }
    const net::RttProvider& truth =
        drifting ? static_cast<const net::RttProvider&>(*drifting)
                 : network.rtt();

    // The control plane runs on every workload; only churn-congested
    // gives it drift and churn to act on. Its probes go through a
    // counting wrapper so maintenance_probes can be checked.
    CountingRttProvider session_truth(truth, false);
    ctl::MaintenanceConfig mc = ctl::make_maintenance_config(
        formed.result, spec_.caches, scheme_->maintainer());
    mc.policy.repair_threshold_ms = 10.0;
    mc.policy.reform_threshold_ms = 25.0;
    mc.budget.caches_per_tick = 8;
    mc.prober.probes_per_measurement = 1;
    mc.prober.jitter_sigma = 0.0;
    mc.kmeans.restarts = 2;
    mc.seed = derive(seed_, 10);
    ctl::MaintenanceSession session(session_truth, mc);
    CountingHook hook(session);

    std::optional<sim::AccessLinkModel> links;
    if (spec_.stress) {
      // 400 B/ms carries the offered load with room to spare, so every
      // request resolves within the run, but bursts queue: transfers are
      // marked past 15 KB of backlog and dropped when they would overflow
      // a 30 KB queue, as every transfer of a document above 30 KB does.
      sim::LinkModelConfig thin;
      thin.bandwidth_bytes_per_ms = 400.0;
      thin.queue_limit_bytes = 30'000.0;
      thin.mark_threshold_bytes = 15'000.0;
      links.emplace(thin, network.host_count());
    }

    sim::SimulationConfig config;
    config.groups = formed.partition;
    config.cache_capacity_bytes = 2ull << 20;
    config.policy = cache::PolicyKind::kUtility;
    config.beacons_per_group = 3;
    config.membership_events = churn;
    config.control_hook = &hook;
    config.control_interval_ms = duration / 24.0;
    if (links) config.netmodel = &*links;

    Outcome out;
    std::vector<std::vector<std::uint32_t>> final_groups;
    if (threads == 0) {
      sim::Simulator sim(*testbed_->catalog, truth, network.server(),
                         std::move(config));
      if (drifting) drifting->bind_clock(sim.clock_ptr());
      ScopedSpan span(spans, span_name);
      const auto t0 = Clock::now();
      out.report = sim.run(source);
      out.wall_s = seconds_since(t0);
      span.finish();
      final_groups = sim.groups();
    } else {
      shard::ShardOptions options;
      options.shards = kShards;
      options.threads = threads;
      shard::ShardedSimulator sim(*testbed_->catalog, truth, network.server(),
                                  std::move(config), options);
      if (drifting) drifting->bind_clock(sim.clock_ptr());
      ScopedSpan span(spans, span_name);
      const auto t0 = Clock::now();
      out.report = sim.run(source);
      out.wall_s = seconds_since(t0);
      span.finish();
      final_groups = sim.groups();
      if (traced && threads == 1) {
        layer["shard.cuts"].push_back(static_cast<double>(sim.cuts_executed()));
        layer["shard.windows"].push_back(
            static_cast<double>(sim.windows_dispatched()));
        layer["shard.merges_skipped"].push_back(
            static_cast<double>(sim.merges_skipped()));
      }
    }
    if (drifting) drifting->bind_clock(nullptr);
    out.bytes = report_bytes(out.report);
    out.decisions = session.decisions();
    out.maintenance_probes = session.probes_sent();

    // Checks every run makes on its own outputs.
    const sim::SimulationReport& r = out.report;
    ops_.requests_fed += drained_requests_;
    ops_.requests_resolved += std::min(r.raw_counts.total(), drained_requests_);
    check(r.requests_processed == drained_requests_,
          "requests processed differ from a separate drain of the stream");
    check(r.raw_counts.total() == r.requests_processed,
          "resolved requests differ from requests processed");
    check(session.probes_sent() == session_truth.calls(),
          "maintenance probes differ from the probes the wrapper saw");
    if (spec_.stress) {
      const std::uint64_t scripted = churn.size() / 2;
      check(r.leaves_applied == scripted && hook.leaves() == scripted,
            "scripted leaves differ from the leaves applied");
      check(r.joins_applied == scripted && hook.joins() == scripted,
            "scripted joins differ from the joins applied");
      std::size_t k = final_groups.size();
      check(valid_partition(final_groups, spec_.caches, k) && k > 0,
            "the partition after churn is not valid");
      check(r.net_drops > 0 && r.net_marks > 0,
            "the thin access links saw no drops or no marks");
    }
    if (traced && threads == 0) {
      layer["ctl.tick_s"].push_back(hook.tick_s());
      layer["ctl.ticks"].push_back(static_cast<double>(hook.ticks()));
      layer["ctl.repairs"].push_back(static_cast<double>(session.repairs()));
      layer["ctl.reforms"].push_back(static_cast<double>(session.reforms()));
      layer["ctl.regroupings"].push_back(static_cast<double>(r.regroupings));
      layer["workload.pull_s"].push_back(counted_stream.tally().pull_s);
      layer["workload.requests"].push_back(
          static_cast<double>(counted_stream.tally().requests));
      layer["workload.updates"].push_back(
          static_cast<double>(stream.updates().size()));
    }
    return out;
  };

  const Outcome seq = run(0, "sim.run");
  const Outcome sharded = run(1, "shard.run");
  check(seq.bytes == sharded.bytes,
        "sequential and 4-shard report bytes differ");
  check(seq.decisions == sharded.decisions,
        "sequential and 4-shard control decisions differ");
  if (serve_bytes_.empty()) {
    serve_bytes_ = seq.bytes;
  } else {
    check(seq.bytes == serve_bytes_,
          "a repeated serve on the same seed gave another report");
  }

  const sim::SimulationReport& r = seq.report;
  const double events = static_cast<double>(r.events_executed);
  e2e["seq_events_per_s"].push_back(events / seq.wall_s);
  e2e["sharded_events_per_s"].push_back(events / sharded.wall_s);
  e2e["avg_latency_ms"].push_back(r.avg_latency_ms);
  e2e["p99_latency_ms"].push_back(r.p99_latency_ms);
  e2e["avg_miss_latency_ms"].push_back(r.avg_miss_latency_ms);
  e2e["group_hit_rate"].push_back(r.counts.group_hit_rate());
  e2e["maintenance_probes"].push_back(
      static_cast<double>(seq.maintenance_probes));

  if (traced) {
    layer["sim.run_s"].push_back(seq.wall_s);
    layer["sim.events"].push_back(events);
    layer["sim.events_per_request"].push_back(
        events / static_cast<double>(r.requests_processed));
    layer["cache.local_hits"].push_back(
        static_cast<double>(r.raw_counts.local_hits));
    layer["cache.group_hits"].push_back(
        static_cast<double>(r.raw_counts.group_hits));
    layer["cache.origin_fetches"].push_back(
        static_cast<double>(r.raw_counts.origin_fetches));
    layer["cache.invalidations"].push_back(
        static_cast<double>(r.invalidations_pushed));
    layer["netmodel.drops"].push_back(static_cast<double>(r.net_drops));
    layer["netmodel.marks"].push_back(static_cast<double>(r.net_marks));
    layer["netmodel.retransmits"].push_back(
        static_cast<double>(r.net_retransmits));
    layer["shard.run_s"].push_back(sharded.wall_s);
    // Reference only: 4 shards on two threads against one thread. Kept
    // out of the round's wall time, so trace.overhead compares like work.
    const auto t_two = Clock::now();
    const Outcome two = run(2, "shard.run_2t");
    reference_s_ += seconds_since(t_two);
    check(two.bytes == seq.bytes, "2-thread sharded report bytes differ");
    layer["shard.speedup_2t"].push_back(sharded.wall_s / two.wall_s);
  }
}

void Pipeline::live_stage(bool traced, Samples& layer, SpanLog& spans) {
  ScopedSpan span(spans, "live");
  const auto t_setup = Clock::now();
  live::CoordinatorOptions options;
  options.members = kLiveMembers;
  live::Coordinator coordinator(live_spec_, options);
  const std::uint16_t port = coordinator.port();

  // Coordinator and members each get a CPU of their own when there are
  // enough: every window is a wake-up on the far side, and a process that
  // migrates or shares a CPU makes those wake-ups, and the run, erratic.
  const std::vector<int> cpus = allowed_cpus();
  const bool pinned = cpus.size() > kLiveMembers && pin_to(cpus[0]);

  std::vector<pid_t> children;
  for (std::uint32_t m = 0; m < kLiveMembers; ++m) {
    const pid_t pid = fork();
    if (pid < 0) break;
    if (pid == 0) {
      // The child shares this process's stdio: leave through _exit so no
      // buffered output is flushed twice.
      int rc = 1;
      if (pinned) pin_to(cpus[m + 1]);
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
  ops_.members_started += kLiveMembers;
  const double setup_s = seconds_since(t_setup);

  std::uint64_t lost = kLiveMembers - children.size();
  live::LiveRunResult result;
  double run_s = 0.0;
  bool ran = false;
  if (children.size() == kLiveMembers) {
    try {
      ScopedSpan run_span(spans, "live.run");
      const auto t0 = Clock::now();
      result = coordinator.run();
      run_s = seconds_since(t0);
      ran = true;
    } catch (const std::exception& e) {
      failures_.push_back(std::string("live run failed: ") + e.what());
    }
  }
  for (const pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++lost;
    }
  }
  if (pinned) allow(cpus);
  if (ran) lost = std::max<std::uint64_t>(lost, result.members_lost);
  ops_.members_lost += std::min<std::uint64_t>(lost, kLiveMembers);
  check(lost == 0, "a live member process was lost");
  if (!ran) return;
  check(report_bytes(result.report) == oracle_bytes_,
        "live report bytes differ from the sequential oracle's");

  if (traced) {
    layer["live.events_per_s"].push_back(
        static_cast<double>(result.report.events_executed) / run_s);
    layer["live.setup_s"].push_back(setup_s);
    layer["live.run_s"].push_back(run_s);
    layer["live.cuts"].push_back(static_cast<double>(result.cuts));
    layer["live.windows"].push_back(static_cast<double>(result.windows));
    layer["live.barriers"].push_back(static_cast<double>(result.barriers));
  }
}

double Pipeline::round(bool traced, std::size_t formations, Samples& e2e,
                       Samples& layer, SpanLog& spans) {
  const auto t_round = Clock::now();
  reference_s_ = 0.0;
  ScopedSpan span(spans, "round");
  // Each repetition forms groups from its own probing and K-means seeds;
  // the first formation is the one the serving stages run on. formation_s
  // is the mean over the repetitions, so seeds that converge in fewer or
  // more K-means iterations average out within the round.
  std::vector<Formed> formed;
  ScopedSpan phase(spans, "formation");
  const auto t_phase = Clock::now();
  for (std::size_t i = 0; i < formations; ++i) {
    formed.push_back(form(i, traced, layer, spans));
  }
  e2e["formation_s"].push_back(seconds_since(t_phase) /
                               static_cast<double>(formations));
  phase.finish();
  for (const Formed& f : formed) {
    e2e["formation_probes"].push_back(
        static_cast<double>(f.result.probes_used));
    e2e["gicost_ms"].push_back(
        gicost_ms(f.partition, testbed_->network->rtt()));
  }
  serve(formed.front(), traced, e2e, layer, spans);
  live_stage(traced, layer, spans);
  return seconds_since(t_round) - reference_s_;
}

void Pipeline::finish(Samples& e2e) {
  // A random partition with the formed groups' sizes, drawn here: the
  // formed groups must interact more cheaply than chance.
  if (!partitions_.empty()) {
    const auto& formed_groups = partitions_.front();
    std::vector<std::uint32_t> caches(spec_.caches);
    std::iota(caches.begin(), caches.end(), 0u);
    util::Rng rng(derive(seed_, 11));
    for (std::size_t i = caches.size(); i > 1; --i) {
      std::swap(caches[i - 1], caches[rng.index(i)]);
    }
    std::vector<std::vector<std::uint32_t>> random;
    std::size_t next = 0;
    for (const auto& g : formed_groups) {
      random.emplace_back(caches.begin() + static_cast<std::ptrdiff_t>(next),
                          caches.begin() +
                              static_cast<std::ptrdiff_t>(next + g.size()));
      next += g.size();
    }
    const double formed = gicost_ms(formed_groups, testbed_->network->rtt());
    const double chance = gicost_ms(random, testbed_->network->rtt());
    check(formed < chance,
          "formed groups do not beat a random partition on gicost");
  }
  e2e["peak_rss_mib"].push_back(peak_rss_mib());
}

}  // namespace ecgf::perfbench
