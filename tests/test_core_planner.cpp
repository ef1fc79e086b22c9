#include "moas/core/planner.h"

#include <gtest/gtest.h>

#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

const topo::AsGraph& graph() {
  static const topo::AsGraph g = [] {
    util::Rng rng(5);
    topo::InternetConfig config;
    config.tier1 = 5;
    config.tier2 = 20;
    config.tier3 = 30;
    config.stubs = 300;
    const topo::AsGraph internet = topo::generate_internet(config, rng);
    return topo::sample_to_size(internet, 120, rng);
  }();
  return g;
}

TEST(Planner, ProducesRequestedCount) {
  util::Rng rng(1);
  for (auto strategy : {DeploymentStrategy::Random, DeploymentStrategy::DegreeRanked,
                        DeploymentStrategy::GreedyCoverage}) {
    const auto deployed = plan_deployment(graph(), 25, strategy, rng);
    EXPECT_EQ(deployed.size(), 25u) << to_string(strategy);
    for (bgp::Asn asn : deployed) EXPECT_TRUE(graph().has_node(asn));
  }
}

TEST(Planner, RejectsOversizedRequest) {
  util::Rng rng(1);
  EXPECT_THROW(
      plan_deployment(graph(), graph().node_count() + 1, DeploymentStrategy::Random, rng),
      std::invalid_argument);
}

TEST(Planner, DegreeRankedPicksTheCore) {
  util::Rng rng(2);
  const auto deployed = plan_deployment(graph(), 10, DeploymentStrategy::DegreeRanked, rng);
  // Every non-deployed node must have degree <= the minimum deployed degree.
  std::size_t min_deployed = ~std::size_t{0};
  for (bgp::Asn asn : deployed) min_deployed = std::min(min_deployed, graph().degree(asn));
  for (bgp::Asn asn : graph().nodes()) {
    if (!deployed.contains(asn)) {
      EXPECT_LE(graph().degree(asn), min_deployed);
    }
  }
}

TEST(Planner, CoverageOrdering) {
  // Informed strategies must cover at least as many edges as random picks.
  util::Rng rng(3);
  const std::size_t k = 20;
  const double random_cov =
      edge_coverage(graph(), plan_deployment(graph(), k, DeploymentStrategy::Random, rng));
  const double degree_cov = edge_coverage(
      graph(), plan_deployment(graph(), k, DeploymentStrategy::DegreeRanked, rng));
  const double greedy_cov = edge_coverage(
      graph(), plan_deployment(graph(), k, DeploymentStrategy::GreedyCoverage, rng));
  EXPECT_GT(degree_cov, random_cov);
  EXPECT_GE(greedy_cov, degree_cov - 1e-9);
}

TEST(Planner, GreedyIsDeterministic) {
  util::Rng rng_a(4);
  util::Rng rng_b(5);
  EXPECT_EQ(plan_deployment(graph(), 15, DeploymentStrategy::GreedyCoverage, rng_a),
            plan_deployment(graph(), 15, DeploymentStrategy::GreedyCoverage, rng_b));
}

TEST(Planner, FullDeploymentCoversEverything) {
  util::Rng rng(6);
  const auto all = plan_deployment(graph(), graph().node_count(),
                                   DeploymentStrategy::DegreeRanked, rng);
  EXPECT_DOUBLE_EQ(edge_coverage(graph(), all), 1.0);
}

TEST(Planner, EmptyDeploymentCoversNothing) {
  EXPECT_DOUBLE_EQ(edge_coverage(graph(), {}), 0.0);
}

TEST(Planner, StrategyNames) {
  EXPECT_STREQ(to_string(DeploymentStrategy::Random), "random");
  EXPECT_STREQ(to_string(DeploymentStrategy::GreedyCoverage), "greedy-coverage");
}

}  // namespace
}  // namespace moas::core
