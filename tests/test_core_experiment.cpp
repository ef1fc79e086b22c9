#include "moas/core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>

#include "moas/bgp/intern.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

/// A ~120-AS sampled topology shared across tests (sampling is the paper's
/// own procedure, so the fixture exercises the full pipeline).
const topo::AsGraph& shared_topology() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(99);
    topo::InternetConfig config;
    config.tier1 = 6;
    config.tier2 = 24;
    config.tier3 = 40;
    config.stubs = 600;
    const topo::AsGraph internet = topo::generate_internet(config, rng);
    return topo::sample_to_size(internet, 120, rng, 0.10);
  }();
  return graph;
}

TEST(Experiment, ValidatesConfigAndTopology) {
  ExperimentConfig config;
  config.num_origins = 7;
  EXPECT_THROW(Experiment(shared_topology(), config), std::invalid_argument);
  config = ExperimentConfig{};
  config.deployment_fraction = 1.5;
  EXPECT_THROW(Experiment(shared_topology(), config), std::invalid_argument);
}

TEST(Experiment, DrawOriginsPicksStubs) {
  ExperimentConfig config;
  config.num_origins = 2;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const auto origins = experiment.draw_origins(rng);
    EXPECT_EQ(origins.size(), 2u);
    for (bgp::Asn asn : origins) EXPECT_TRUE(shared_topology().is_stub(asn));
  }
}

TEST(Experiment, DrawAttackersAvoidsOrigins) {
  Experiment experiment(shared_topology(), ExperimentConfig{});
  util::Rng rng(2);
  const auto origins = experiment.draw_origins(rng);
  for (int i = 0; i < 10; ++i) {
    const auto attackers = experiment.draw_attackers(10, origins, rng);
    EXPECT_EQ(attackers.size(), 10u);
    for (bgp::Asn a : attackers) EXPECT_FALSE(origins.contains(a));
  }
}

TEST(Experiment, PlacementFiltersHonored) {
  ExperimentConfig config;
  config.placement = AttackerPlacement::StubsOnly;
  Experiment stubs_only(shared_topology(), config);
  config.placement = AttackerPlacement::TransitOnly;
  Experiment transit_only(shared_topology(), config);
  util::Rng rng(3);
  const auto origins = stubs_only.draw_origins(rng);
  for (bgp::Asn a : stubs_only.draw_attackers(5, origins, rng)) {
    EXPECT_TRUE(shared_topology().is_stub(a));
  }
  for (bgp::Asn a : transit_only.draw_attackers(5, origins, rng)) {
    EXPECT_TRUE(shared_topology().is_transit(a));
  }
}

TEST(Experiment, NoAttackersNoDamage) {
  Experiment experiment(shared_topology(), ExperimentConfig{});
  util::Rng rng(4);
  const RunResult result = experiment.run_once(0, rng);
  EXPECT_EQ(result.adopted_false, 0u);
  EXPECT_EQ(result.attackers, 0u);
  EXPECT_EQ(result.population, shared_topology().node_count());
  // Everyone converges to the valid origin.
  EXPECT_EQ(result.adopted_valid, result.population);
  EXPECT_TRUE(result.quiesced);
}

TEST(Experiment, SameSeedSameResult) {
  Experiment experiment(shared_topology(), ExperimentConfig{});
  util::Rng rng(5);
  const auto origins = experiment.draw_origins(rng);
  const auto attackers = experiment.draw_attackers(8, origins, rng);
  const RunResult a = experiment.run_with(origins, attackers, 1234);
  const RunResult b = experiment.run_with(origins, attackers, 1234);
  EXPECT_EQ(a.adopted_false, b.adopted_false);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Experiment, RejectsOriginAsAttacker) {
  Experiment experiment(shared_topology(), ExperimentConfig{});
  util::Rng rng(6);
  const auto origins = experiment.draw_origins(rng);
  EXPECT_THROW(experiment.run_with(origins, origins, 1), std::invalid_argument);
}

TEST(Experiment, FullDetectionBeatsNormalBgp) {
  ExperimentConfig config;
  config.deployment = Deployment::None;
  Experiment normal(shared_topology(), config);
  config.deployment = Deployment::Full;
  Experiment full(shared_topology(), config);

  util::Rng rng(7);
  const auto origins = normal.draw_origins(rng);
  const auto attackers = normal.draw_attackers(12, origins, rng);
  const RunResult without = normal.run_with(origins, attackers, 42);
  const RunResult with = full.run_with(origins, attackers, 42);
  EXPECT_GT(without.adopted_false_fraction(), 0.2);
  EXPECT_LT(with.adopted_false_fraction(), without.adopted_false_fraction() / 2.0);
  EXPECT_GT(with.alarms, 0u);
  EXPECT_GT(with.rejections, 0u);
}

TEST(Experiment, FullDetectionResidualIsStructuralCutoff) {
  // Under full deployment with an oracle resolver, exactly the ASes the
  // attacker set disconnects from every valid origin end up fooled or
  // routeless; everyone else routes to a valid origin. structural_cutoff is
  // a fraction of non-attacker non-origin ASes, so compare absolute counts.
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    const auto origins = experiment.draw_origins(rng);
    const auto attackers = experiment.draw_attackers(15, origins, rng);
    const RunResult result = experiment.run_with(origins, attackers, rng.next());
    const auto damaged = result.adopted_false + result.no_route;
    const double cut_population = static_cast<double>(
        result.total_ases - attackers.size() - origins.size());
    const auto expected = static_cast<std::size_t>(
        std::lround(result.structural_cutoff * cut_population));
    EXPECT_EQ(damaged, expected) << "trial " << trial;
  }
}

TEST(Experiment, NormalBgpRaisesNoAlarms) {
  ExperimentConfig config;
  config.deployment = Deployment::None;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(9);
  const RunResult result = experiment.run_once(10, rng);
  EXPECT_EQ(result.alarms, 0u);
  EXPECT_EQ(result.rejections, 0u);
}

TEST(Experiment, PartialDeploymentInBetween) {
  util::Rng rng(10);
  auto run_mean = [&](Deployment deployment) {
    ExperimentConfig config;
    config.deployment = deployment;
    config.deployment_fraction = 0.5;
    Experiment experiment(shared_topology(), config);
    util::Rng local(11);
    const SweepPoint point = experiment.run_point(0.15, 2, 3, local);
    return point.mean_adopted_false;
  };
  const double none = run_mean(Deployment::None);
  const double half = run_mean(Deployment::Partial);
  const double full = run_mean(Deployment::Full);
  EXPECT_LT(full, half);
  EXPECT_LT(half, none);
}

TEST(Experiment, TwoOriginsCarryMoasListWithoutFalseAlarms) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.num_origins = 2;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(12);
  const RunResult result = experiment.run_once(0, rng);
  // Two consistent origins: no alarms at all.
  EXPECT_EQ(result.alarms, 0u);
  EXPECT_EQ(result.adopted_valid, result.population);
}

TEST(Experiment, StrippingCausesOnlyFalseAlarms) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.num_origins = 2;
  config.strip_fraction = 0.3;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(13);
  const RunResult result = experiment.run_once(0, rng);
  EXPECT_GT(result.alarms, 0u);
  EXPECT_EQ(result.alarms, result.false_alarms);
  // With the oracle resolving every alarm, no availability is lost.
  EXPECT_EQ(result.adopted_valid, result.population);
}

TEST(Experiment, RunPointAveragesRequestedRuns) {
  ExperimentConfig config;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(14);
  const SweepPoint point = experiment.run_point(0.1, 3, 5, rng);
  EXPECT_EQ(point.runs, 15u);
  EXPECT_GE(point.mean_adopted_false, 0.0);
  EXPECT_LE(point.mean_adopted_false, 1.0);
}

TEST(Experiment, SweepProducesOnePointPerFraction) {
  Experiment experiment(shared_topology(), ExperimentConfig{});
  util::Rng rng(15);
  const auto points = experiment.sweep({0.0, 0.1, 0.2}, 1, 2, rng);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].attacker_fraction, 0.0);
  EXPECT_DOUBLE_EQ(points[0].mean_adopted_false, 0.0);
}

TEST(Experiment, ConvergeBeforeAttackImmunizesFullDeployment) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.converge_before_attack = true;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(16);
  const RunResult result = experiment.run_once(12, rng);
  // Reference lists are seeded before the attack: nobody is fooled.
  EXPECT_EQ(result.adopted_false, 0u);
}

TEST(Experiment, SubPrefixHijackEvadesDetection) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.strategy = AttackerStrategy::SubPrefixHijack;
  Experiment experiment(shared_topology(), config);
  util::Rng rng(17);
  const RunResult result = experiment.run_once(3, rng);
  // The Section 4.3 limitation: full deployment, yet the more-specific
  // hijack captures essentially the whole population.
  EXPECT_GT(result.adopted_false_fraction(), 0.9);
}

ExperimentConfig wave_config() {
  ExperimentConfig config;
  config.engine = Engine::Wave;
  config.mrai = 0.0;
  config.prefer_established = false;
  return config;
}

TEST(RunArena, RunLeavesTheProcessArenaUnchanged) {
  // Each run interns into an arena of its own, freed when it returns.
  ExperimentConfig event;
  event.deployment = Deployment::Full;
  event.num_origins = 2;  // the valid routes carry a MOAS list
  ExperimentConfig wave = wave_config();
  wave.deployment = Deployment::Full;
  wave.num_origins = 2;
  for (const ExperimentConfig& config : {event, wave}) {
    SCOPED_TRACE(to_string(config.engine));
    const Experiment experiment(shared_topology(), config);
    util::Rng rng(18);
    const bgp::AsnSet origins = experiment.draw_origins(rng);
    const bgp::AsnSet attackers = experiment.draw_attackers(6, origins, rng);
    const bgp::intern::PoolStats before = bgp::intern::pool_stats();
    const RunResult result = experiment.run_with(origins, attackers, rng.next());
    EXPECT_GT(result.announcements, 0u);
    const bgp::intern::PoolStats after = bgp::intern::pool_stats();
    EXPECT_EQ(after.paths.entries, before.paths.entries);
    EXPECT_EQ(after.community_sets.entries, before.community_sets.entries);
    EXPECT_EQ(after.large_community_sets.entries, before.large_community_sets.entries);
    EXPECT_EQ(after.total_bytes(), before.total_bytes());
  }
}

TEST(RunArena, FinalRibsOutliveTheirRuns) {
  // The final RIBs are copied into the process arena, so two runs' routes
  // compare by handle and stay readable after both arenas are gone.
  ExperimentConfig event;
  event.mrai = 0.0;
  event.prefer_established = false;
  event.num_origins = 2;
  event.keep_final_ribs = true;
  ExperimentConfig wave = wave_config();
  wave.num_origins = 2;
  wave.keep_final_ribs = true;
  util::Rng rng(19);
  const Experiment event_experiment(shared_topology(), event);
  const bgp::AsnSet origins = event_experiment.draw_origins(rng);
  const bgp::AsnSet attackers = event_experiment.draw_attackers(4, origins, rng);
  const std::uint64_t seed = rng.next();
  const RunResult a = event_experiment.run_with(origins, attackers, seed);
  const RunResult b = Experiment(shared_topology(), wave).run_with(origins, attackers, seed);
  ASSERT_FALSE(a.final_ribs.empty());
  EXPECT_EQ(a.final_ribs, b.final_ribs);
  bool any_list = false;
  for (std::size_t i = 0; i < a.final_ribs.size(); ++i) {
    const bgp::Route& route = a.final_ribs[i].entry.route;
    EXPECT_EQ(route.to_string(), b.final_ribs[i].entry.route.to_string());
    any_list = any_list || !route.attrs.communities.empty();
  }
  EXPECT_TRUE(any_list) << "two origins attach a MOAS list";
}

TEST(Experiment, DeploymentNames) {
  EXPECT_STREQ(to_string(Deployment::None), "normal-bgp");
  EXPECT_STREQ(to_string(Deployment::Partial), "partial-moas");
  EXPECT_STREQ(to_string(Deployment::Full), "full-moas");
}

}  // namespace
}  // namespace moas::core
