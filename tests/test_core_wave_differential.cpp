// Event-vs-wave differential gate: for the same topology, placements and
// run seed, the two engines must converge to *identical* final Loc-RIBs and
// adoption counts — compared with operator==, no tolerance windows. The one
// knob that legitimately differs between the engines is route-age tie
// preference (prefer_established), which is timing-dependent by definition;
// both arms here run with it off (DESIGN.md §10). The event arm keeps its
// default 30 s MRAI: pacing reshuffles message timing but not the fixpoint,
// so passing this gate doubles as evidence MRAI is outcome-neutral.
#include "moas/core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

/// Parent internet the paper-sized samples are drawn from — moderate scale
/// so the 630-AS event runs stay test-suite fast, but tiered and multi-homed
/// like the full generator defaults.
const topo::AsGraph& parent_internet() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(41);
    topo::InternetConfig config;
    config.tier1 = 8;
    config.tier2 = 48;
    config.tier3 = 90;
    config.stubs = 1800;
    return topo::generate_internet(config, rng);
  }();
  return graph;
}

const topo::AsGraph& sampled(std::size_t size) {
  static std::map<std::size_t, topo::AsGraph> cache = [] {
    std::map<std::size_t, topo::AsGraph> m;
    for (std::size_t size : {std::size_t{250}, std::size_t{460}, std::size_t{630}}) {
      util::Rng rng(size * 101 + 7);
      m.emplace(size, topo::sample_to_size(parent_internet(), size, rng, 0.10));
    }
    return m;
  }();
  return cache.at(size);
}

ExperimentConfig event_arm(ExperimentConfig config) {
  config.engine = Engine::Event;
  // Route-age preference is the deliberate fidelity difference — off on the
  // event arm too, or converged tie winners depend on message timing.
  config.prefer_established = false;
  config.keep_final_ribs = true;
  return config;
}

ExperimentConfig wave_arm(ExperimentConfig config) {
  config.engine = Engine::Wave;
  config.mrai = 0.0;
  config.prefer_established = false;
  config.keep_final_ribs = true;
  return config;
}

void expect_identical_outcome(const RunResult& event, const RunResult& wave) {
  EXPECT_EQ(event.population, wave.population);
  EXPECT_EQ(event.adopted_false, wave.adopted_false);
  EXPECT_EQ(event.adopted_valid, wave.adopted_valid);
  EXPECT_EQ(event.no_route, wave.no_route);
  EXPECT_EQ(event.rejections > 0, wave.rejections > 0);
  ASSERT_EQ(event.final_ribs.size(), wave.final_ribs.size());
  for (std::size_t i = 0; i < event.final_ribs.size(); ++i) {
    ASSERT_EQ(event.final_ribs[i], wave.final_ribs[i])
        << "Loc-RIB divergence at entry " << i << " (AS " << event.final_ribs[i].asn
        << " vs AS " << wave.final_ribs[i].asn << ")";
  }
}

void run_differential(ExperimentConfig base, double attacker_fraction) {
  for (std::size_t size : {std::size_t{250}, std::size_t{460}, std::size_t{630}}) {
    const topo::AsGraph& graph = sampled(size);
    const Experiment event(graph, event_arm(base));
    const Experiment wave(graph, wave_arm(base));
    const auto num_attackers = static_cast<std::size_t>(
        attacker_fraction * static_cast<double>(graph.node_count()));
    util::Rng rng(size * 7 + 1);
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("size " + std::to_string(size) + " trial " + std::to_string(trial));
      const bgp::AsnSet origins = event.draw_origins(rng);
      const bgp::AsnSet attackers = event.draw_attackers(num_attackers, origins, rng);
      const std::uint64_t seed = rng.next();
      expect_identical_outcome(event.run_with(origins, attackers, seed),
                               wave.run_with(origins, attackers, seed));
    }
  }
}

TEST(WaveDifferential, ShortestPathFullDeploymentSingleAttackerMatchesEventEngine) {
  // One attacker racing the valid origination under full deployment: each
  // router's fate is a function of structural reachability alone (it either
  // hears both origins — conflict, oracle, ban — or only the false one), so
  // the converged Loc-RIBs are engine-independent. With *several* attackers
  // racing, whether a cut-off router happens to hear one or two distinct
  // false origins — and thus whether its detector ever sees a conflict —
  // depends on transient path exploration, which is event-time fidelity the
  // wave engine deliberately does not model (DESIGN.md §10); the aggregate
  // gate below covers that regime.
  ExperimentConfig config;
  config.policy = bgp::PolicyMode::ShortestPath;
  config.deployment = Deployment::Full;
  config.resolver = ResolverKind::Oracle;
  for (std::size_t size : {std::size_t{250}, std::size_t{460}, std::size_t{630}}) {
    const topo::AsGraph& graph = sampled(size);
    const Experiment event(graph, event_arm(config));
    const Experiment wave(graph, wave_arm(config));
    util::Rng rng(size * 7 + 1);
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("size " + std::to_string(size) + " trial " + std::to_string(trial));
      const bgp::AsnSet origins = event.draw_origins(rng);
      const bgp::AsnSet attackers = event.draw_attackers(1, origins, rng);
      const std::uint64_t seed = rng.next();
      expect_identical_outcome(event.run_with(origins, attackers, seed),
                               wave.run_with(origins, attackers, seed));
    }
  }
}

TEST(WaveDifferential, MultiAttackerRacingAgreesOnAffectedTotal) {
  // The documented fidelity difference (DESIGN.md §10): under a racing
  // multi-attacker start the event engine's path exploration feeds the
  // stateful detectors strictly more transient conflict evidence, so WHICH
  // cut-off routers end banned-and-routeless versus fooled differs between
  // engines. The *total* damage does not: under full deployment with an
  // oracle both engines pin it to exactly the structurally-cut-off set —
  // an exact cross-engine equality, not a tolerance window.
  ExperimentConfig config;
  config.policy = bgp::PolicyMode::ShortestPath;
  config.deployment = Deployment::Full;
  config.resolver = ResolverKind::Oracle;
  for (std::size_t size : {std::size_t{250}, std::size_t{460}, std::size_t{630}}) {
    const topo::AsGraph& graph = sampled(size);
    const Experiment event(graph, event_arm(config));
    const Experiment wave(graph, wave_arm(config));
    const std::size_t num_attackers = graph.node_count() / 10;
    util::Rng rng(size * 13 + 5);
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("size " + std::to_string(size) + " trial " + std::to_string(trial));
      const bgp::AsnSet origins = event.draw_origins(rng);
      const bgp::AsnSet attackers = event.draw_attackers(num_attackers, origins, rng);
      const std::uint64_t seed = rng.next();
      const RunResult e = event.run_with(origins, attackers, seed);
      const RunResult w = wave.run_with(origins, attackers, seed);
      EXPECT_EQ(e.population, w.population);
      EXPECT_EQ(e.adopted_false + e.no_route, w.adopted_false + w.no_route);
      EXPECT_EQ(e.structural_cutoff, w.structural_cutoff);
      const double cut_population = static_cast<double>(
          e.total_ases - attackers.size() - origins.size());
      const auto structurally_cut = static_cast<std::size_t>(
          std::lround(e.structural_cutoff * cut_population));
      EXPECT_EQ(e.adopted_false + e.no_route, structurally_cut);
      EXPECT_EQ(w.adopted_false + w.no_route, structurally_cut);
    }
  }
}

TEST(WaveDifferential, GaoRexfordNormalBgpMatchesEventEngine) {
  // No detectors: the run is a pure BGP fixpoint, identical for any number
  // of racing attackers.
  ExperimentConfig config;
  config.policy = bgp::PolicyMode::GaoRexford;
  config.deployment = Deployment::None;
  run_differential(config, 0.10);
}

TEST(WaveDifferential, NoAttackConvergenceMatchesWithMoasList) {
  // Two legitimate origins, no attacker: the MOAS-list plumbing (communities
  // on the wire, detector reference lists) converges identically.
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.num_origins = 2;
  run_differential(config, 0.0);
}

TEST(WaveDifferential, SeedsResolveToSameCapableAndStripSets) {
  // Partial deployment + community stripping consume the run-seed stream;
  // both engines draw them through the shared scenario pipeline, so the
  // same PlannedRun resolves to the same capable/stripping sets — which
  // this equality implies. The attack hits a pre-converged steady state:
  // with partial detectors a racing start is history-dependent (DESIGN.md
  // §10), and this test is about the seed plumbing, not the racing regime.
  ExperimentConfig config;
  config.deployment = Deployment::Partial;
  config.deployment_fraction = 0.5;
  config.num_origins = 2;
  config.strip_fraction = 0.2;
  config.converge_before_attack = true;
  run_differential(config, 0.10);
}

TEST(WaveDifferential, ConvergeBeforeAttackMatches) {
  // Two-phase runs: valid routes reach their fixpoint, then the attack hits
  // the converged state incrementally — both engines support the split.
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.converge_before_attack = true;
  run_differential(config, 0.10);
}

TEST(WaveExperiment, RejectsEventTimeKnobsLoudly) {
  ExperimentConfig config;
  config.engine = Engine::Wave;
  config.prefer_established = false;
  // mrai defaults to 30: a wave Experiment must refuse it rather than
  // silently ignore pacing the engine cannot express.
  EXPECT_THROW(Experiment(sampled(250), config), std::invalid_argument);
  config.mrai = 0.0;
  EXPECT_NO_THROW(Experiment(sampled(250), config));

  ExperimentConfig bad = config;
  bad.prefer_established = true;
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
  bad = config;
  bad.churn.emplace();
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
  bad = config;
  bad.async_resolution.emplace();
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
  bad = config;
  bad.graceful_restart = true;
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
  bad = config;
  bad.revised_error_handling = true;
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
  bad = config;
  bad.trace_level = obs::TraceLevel::Summary;
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
  bad = config;
  bad.check_invariants = true;
  EXPECT_THROW(Experiment(sampled(250), bad), std::invalid_argument);
}

TEST(WaveExperiment, EngineNames) {
  EXPECT_STREQ(to_string(Engine::Event), "event");
  EXPECT_STREQ(to_string(Engine::Wave), "wave");
}

}  // namespace
}  // namespace moas::core
