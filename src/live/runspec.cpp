#include "live/runspec.h"

#include <utility>

#include "core/scheme.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ecgf::live {

namespace {

// Fixed salts deriving the independent RNG streams from the master seed.
// Wire-stable: changing one changes every live/oracle output.
constexpr std::uint64_t kProberSalt = 0x70726F6265726C76ull;  // "proberlv"
constexpr std::uint64_t kFormSalt = 0x666F726D6C697665ull;    // "formlive"

cache::CatalogParams catalog_params(const RunSpec& spec) {
  cache::CatalogParams p;
  p.document_count = spec.document_count;
  return p;
}

workload::WorkloadParams workload_params(const RunSpec& spec) {
  workload::WorkloadParams p;
  p.cache_count = spec.cache_count;
  p.duration_ms = spec.duration_ms;
  p.requests_per_cache_per_s = spec.requests_per_cache_per_s;
  p.zipf_alpha = spec.zipf_alpha;
  p.similarity = spec.similarity;
  p.profile = static_cast<workload::StreamProfile>(spec.profile);
  return p;
}

/// Swallows every effect except the one trace event an update emits.
struct CaptureSink final : sim::EffectSink {
  bool captured = false;
  obs::TraceEvent event{};
  void emit(const obs::TraceEvent& e) override {
    captured = true;
    event = e;
  }
  void record(cache::CacheIndex, double, sim::Resolution,
              sim::SimTime) override {}
  void rtt_sample(net::HostId, net::HostId, double, sim::SimTime) override {}
};

}  // namespace

UpdateShare apply_update(sim::ShardableEngine& engine,
                         const workload::Update& update) {
  const std::uint64_t before = engine.invalidations_pushed();
  CaptureSink cap;
  engine.on_update(update, cap);
  UpdateShare share;
  share.invalidations = engine.invalidations_pushed() - before;
  share.announced = cap.captured;
  if (cap.captured) share.holders = static_cast<std::uint64_t>(cap.event.b);
  return share;
}

World build_world(const RunSpec& spec) {
  util::Rng rng(spec.seed);
  cache::Catalog catalog =
      cache::Catalog::generate(catalog_params(spec), rng);
  net::PlaneOptions plane;
  plane.width_ms = spec.plane_width_ms;
  plane.last_mile_ms = spec.plane_last_mile_ms;
  plane.seed = spec.seed;
  net::PlaneRttProvider rtt(spec.cache_count + 1, plane);
  auto workload = std::make_unique<workload::SyntheticWorkload>(
      workload_params(spec), catalog, rng);
  return World{std::move(catalog), std::move(rtt), std::move(workload)};
}

sim::SimulationConfig sim_config_for(
    const RunSpec& spec,
    std::vector<std::vector<cache::CacheIndex>> groups) {
  sim::SimulationConfig config;
  config.groups = std::move(groups);
  config.cache_capacity_bytes = spec.cache_capacity_bytes;
  config.beacons_per_group = spec.beacons_per_group;
  config.warmup_fraction = spec.warmup_fraction;
  config.consistency = static_cast<sim::ConsistencyMode>(spec.consistency);
  config.ttl_ms = spec.ttl_ms;
  config.failures = spec.failures;
  config.membership_events = spec.membership;
  return config;
}

std::vector<std::vector<cache::CacheIndex>> form_live_groups(
    const RunSpec& spec, const net::RttProvider& provider,
    obs::TraceContext* trace) {
  net::ProberOptions popts;
  popts.probes_per_measurement = spec.probes_per_measurement;
  popts.jitter_sigma = spec.jitter_sigma;
  net::Prober prober(provider, popts,
                     util::Rng(spec.seed ^ kProberSalt));
  if (trace != nullptr && trace->active()) prober.set_trace(trace);
  util::Rng form_rng(spec.seed ^ kFormSalt);

  core::SchemeConfig sc;
  sc.num_landmarks = spec.num_landmarks;
  sc.m_multiplier = spec.m_multiplier;
  sc.theta = spec.theta;
  const net::HostId server = spec.cache_count;
  core::GroupingResult result;
  if (spec.scheme == 0) {
    result = core::SlScheme(sc).form_groups(spec.cache_count, server,
                                            spec.group_count, prober,
                                            form_rng, trace);
  } else {
    result = core::SdslScheme(sc).form_groups(spec.cache_count, server,
                                              spec.group_count, prober,
                                              form_rng, trace);
  }
  return result.partition();
}

OracleResult run_oracle(const RunSpec& spec, obs::TraceContext trace) {
  World world = build_world(spec);
  // Formation events are untraced in both the live run and the oracle:
  // the serving-phase stream is the byte-compare surface.
  auto groups = form_live_groups(spec, world.rtt, nullptr);
  sim::SimulationConfig config = sim_config_for(spec, groups);
  config.trace = trace;
  sim::Simulator sim(world.catalog, world.rtt, world.server(), config);
  OracleResult out;
  out.report = sim.run(*world.workload);
  out.groups = std::move(groups);
  return out;
}

}  // namespace ecgf::live
