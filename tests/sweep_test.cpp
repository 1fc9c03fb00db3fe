// Parameterized sweeps across the configuration space: every position
// representation, landmark counts, PLSet multipliers, θ values, and
// message-engine seeds. Each combination must produce a structurally valid
// result — these are the "no configuration corner breaks" guarantees.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "sim/message_engine.h"
#include "util/stats.h"

namespace ecgf {
namespace {

// ---------------------------------------------------------------------
// Position representation × landmark count sweep.
// gtest prints a parameter without a PrintTo overload as its raw bytes, and
// each case is named after that print. The explicit zeroed member fills what
// would otherwise be padding, so the names do not pick up stack garbage.
struct PositionSweepParam {
  core::PositionKind kind;
  std::uint32_t zero = 0;
  std::size_t landmarks;
};
static_assert(sizeof(PositionSweepParam) ==
              sizeof(core::PositionKind) + sizeof(std::uint32_t) +
                  sizeof(std::size_t));

class PositionSweep : public ::testing::TestWithParam<PositionSweepParam> {};

TEST_P(PositionSweep, SchemeProducesValidGroupsAndSaneGicost) {
  const auto [kind, zero, landmarks] = GetParam();
  ASSERT_EQ(zero, 0u);
  core::EdgeNetworkParams params;
  params.cache_count = 40;
  const auto network = core::build_edge_network(params, 1234);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, 1235);

  core::SchemeConfig config;
  config.num_landmarks = landmarks;
  config.positions = kind;
  config.gnp.dimension = std::min<std::size_t>(4, landmarks - 1);
  config.virtual_landmarks.dimension = std::min<std::size_t>(3, landmarks);
  config.vivaldi.rounds = 20;
  const core::SlScheme scheme(config);
  const auto result = coordinator.run(scheme, 5);

  std::vector<int> seen(40, 0);
  for (const auto& g : result.groups) {
    ASSERT_FALSE(g.members.empty());
    for (auto m : g.members) ++seen[m];
  }
  for (int c : seen) ASSERT_EQ(c, 1);
  ASSERT_EQ(result.server_distance_ms.size(), 40u);
  for (double d : result.server_distance_ms) ASSERT_GT(d, 0.0);

  // GICost of any landmark-driven clustering should beat 2× the random
  // baseline — a very loose sanity bound that still catches degenerate
  // embeddings.
  const double gicost = coordinator.average_group_interaction_cost(result);
  util::Rng rng(1236);
  const auto random = core::random_partition(40, 5, rng);
  const cluster::DistanceFn icost = [&](std::size_t a, std::size_t b) {
    return network.rtt_ms(static_cast<net::HostId>(a),
                          static_cast<net::HostId>(b));
  };
  std::vector<std::vector<std::size_t>> as_groups;
  for (const auto& g : random) as_groups.emplace_back(g.begin(), g.end());
  const double random_cost =
      cluster::average_group_interaction_cost(as_groups, icost);
  EXPECT_LT(gicost, random_cost * 1.1)
      << "kind=" << static_cast<int>(kind) << " L=" << landmarks;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PositionSweep,
    ::testing::Values(
        PositionSweepParam{.kind = core::PositionKind::kFeatureVector,
                           .landmarks = 5},
        PositionSweepParam{.kind = core::PositionKind::kFeatureVector,
                           .landmarks = 10},
        PositionSweepParam{.kind = core::PositionKind::kFeatureVector,
                           .landmarks = 20},
        PositionSweepParam{.kind = core::PositionKind::kGnp,
                           .landmarks = 8},
        PositionSweepParam{.kind = core::PositionKind::kGnp,
                           .landmarks = 12},
        PositionSweepParam{.kind = core::PositionKind::kVirtualLandmarks,
                           .landmarks = 6},
        PositionSweepParam{.kind = core::PositionKind::kVirtualLandmarks,
                           .landmarks = 12},
        PositionSweepParam{.kind = core::PositionKind::kVivaldi,
                           .landmarks = 5}));

// ---------------------------------------------------------------------
// SDSL θ sweep: every θ gives a valid partition; higher θ concentrates
// more groups near the origin (checked via near-half group count).
class ThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThetaSweep, ValidPartitionAtEveryTheta) {
  const double theta = GetParam();
  core::EdgeNetworkParams params;
  params.cache_count = 50;
  const auto network = core::build_edge_network(params, 555);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, 556);
  core::SchemeConfig config;
  config.num_landmarks = 10;
  config.theta = theta;
  const core::SdslScheme scheme(config);
  const auto result = coordinator.run(scheme, 8);
  ASSERT_EQ(result.groups.size(), 8u);
  std::vector<int> seen(50, 0);
  for (const auto& g : result.groups) {
    for (auto m : g.members) ++seen[m];
  }
  for (int c : seen) ASSERT_EQ(c, 1);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ThetaSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0, 8.0));

// ---------------------------------------------------------------------
// PLSet M sweep with clamping edge cases.
class MSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MSweep, GreedySelectorHandlesAllMultipliers) {
  const std::size_t m = GetParam();
  core::EdgeNetworkParams params;
  params.cache_count = 30;
  const auto network = core::build_edge_network(params, 777);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, 778);
  core::SchemeConfig config;
  config.num_landmarks = 8;
  config.m_multiplier = m;  // m=8 ⇒ PLSet want 56 > 30 caches: clamped
  const core::SlScheme scheme(config);
  const auto result = coordinator.run(scheme, 4);
  EXPECT_EQ(result.landmarks.size(), 8u);
  EXPECT_EQ(result.landmarks[0], network.server());
  std::set<net::HostId> uniq(result.landmarks.begin(), result.landmarks.end());
  EXPECT_EQ(uniq.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(Ms, MSweep, ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------
// Message-engine conservation across seeds.
class MessageEngineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageEngineSweep, ConservationHolds) {
  const std::uint64_t seed = GetParam();
  core::TestbedParams params;
  params.cache_count = 20;
  params.workload.duration_ms = 30'000.0;
  params.catalog.document_count = 300;
  const auto testbed = core::make_testbed(params, seed);
  util::Rng rng(seed + 1);
  const auto partition = core::random_partition(20, 4, rng);

  sim::MessageEngineConfig config;
  config.base.groups = partition;
  const auto report =
      sim::run_message_level(testbed.catalog, testbed.network.rtt(),
                             testbed.network.server(), config, testbed.trace);

  EXPECT_EQ(report.base.raw_counts.total(), testbed.trace.requests.size());
  EXPECT_EQ(report.base.raw_counts.origin_fetches, report.base.origin_fetches);
  EXPECT_EQ(report.base.origin_updates, testbed.trace.updates.size());
  EXPECT_GE(report.messages_sent, report.base.raw_counts.total());
  EXPECT_GE(report.base.p99_latency_ms, report.base.p50_latency_ms);
  EXPECT_GE(report.mean_cache_queue_delay_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageEngineSweep,
                         ::testing::Range<std::uint64_t>(100, 106));

// ---------------------------------------------------------------------
// Reservoir sampling (percentile estimator).
TEST(Reservoir, ExactBelowCapacity) {
  util::ReservoirSample rs(100, 1);
  for (int i = 1; i <= 50; ++i) rs.add(i);
  EXPECT_EQ(rs.seen(), 50u);
  EXPECT_EQ(rs.size(), 50u);
  EXPECT_NEAR(rs.quantile(0.5), 25.5, 1e-9);
  EXPECT_DOUBLE_EQ(rs.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(rs.quantile(1.0), 50.0);
}

TEST(Reservoir, ApproximatesQuantilesOverCapacity) {
  util::ReservoirSample rs(512, 2);
  util::Rng rng(3);
  for (int i = 0; i < 100'000; ++i) rs.add(rng.uniform(0.0, 100.0));
  EXPECT_EQ(rs.seen(), 100'000u);
  EXPECT_EQ(rs.size(), 512u);
  EXPECT_NEAR(rs.quantile(0.5), 50.0, 6.0);
  EXPECT_NEAR(rs.quantile(0.95), 95.0, 5.0);
}

TEST(Reservoir, DeterministicForSeed) {
  util::ReservoirSample a(64, 9), b(64, 9);
  util::Rng ra(4), rb(4);
  for (int i = 0; i < 10'000; ++i) {
    a.add(ra.uniform01());
    b.add(rb.uniform01());
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.99), b.quantile(0.99));
}

TEST(Reservoir, EmptyReturnsZero) {
  util::ReservoirSample rs(8, 5);
  EXPECT_DOUBLE_EQ(rs.quantile(0.5), 0.0);
  EXPECT_THROW(util::ReservoirSample(0, 1), util::ContractViolation);
}

}  // namespace
}  // namespace ecgf
