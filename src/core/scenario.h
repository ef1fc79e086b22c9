// The paper's Section 5 scenario, written once for every runner.
//
// Experiment::run_event, Experiment::run_wave and run_multi_prefix all play
// the same scenario: build the registry and resolver chain, place detectors
// and community strippers, originate valid routes (with a MOAS list when the
// prefix has several origins), launch the attacks, propagate, then score the
// share of ASes that adopted a false origin and classify the alarms. The
// runners keep only what differs — how routes propagate, and for run_event
// everything that needs a clock. Both engines hand out bgp::Router& by ASN,
// so the steps that touch routers take a RouterAt lookup, not an engine.
//
// Draw order of one single-prefix run, pinned by the golden files:
//   resolver seed (Dns/Irr)   Run constructor
//   network seed              Run constructor (run_wave draws and ignores it)
//   async seeds               run_event, only with async_resolution
//   Partial capable sample    Run::deploy
//   strip sample              Run::deploy
//   injection jitter          run_event: one draw per origin, then per attacker
//
// Internal to moas_core.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "moas/core/experiment.h"

namespace moas::core::scenario {

using RouterAt = std::function<bgp::Router&(bgp::Asn)>;

/// Capability sampling and detector wiring: every AS is capable under Full,
/// a seeded `fraction` of all ASes under Partial, none under None. Each
/// capable AS outside `attackers` gets a MoasDetector on `alarms` and
/// `resolver` as its import validator (capability on a compromised node is
/// moot).
std::vector<std::shared_ptr<MoasDetector>> install_detectors(
    Deployment deployment, double fraction, const std::vector<bgp::Asn>& ases,
    const AsnSet& attackers, const std::shared_ptr<AlarmLog>& alarms,
    const std::shared_ptr<OriginResolver>& resolver, util::Rng& rng, const RouterAt& at);

/// What valid origins attach: the MOAS list when the prefix really is
/// multi-origin, nothing otherwise (the paper: "Routes that originate from
/// a single AS need not attach a MOAS list").
bgp::PathAttributes origin_attrs(const AsnSet& origins);

AttackPlan attack_plan(bgp::Asn attacker, const net::Prefix& victim, const AsnSet& origins,
                       AttackerStrategy strategy);

/// The prefix whose best route decides a node's fate: under
/// SubPrefixHijack the attacker wins wherever its more-specific route is
/// present (longest-prefix match beats the valid covering route).
net::Prefix scored_prefix(const net::Prefix& victim, AttackerStrategy strategy,
                          const AsnSet& attackers);

/// The fig9/10 outcome tally over the non-attacker ASes.
struct Outcome {
  std::size_t population = 0;
  std::size_t adopted_false = 0;  // best route origin is an attacker
  std::size_t adopted_valid = 0;  // best route origin is a valid origin
  std::size_t no_route = 0;       // no route for the victim prefix at all
};

Outcome score(const RouterAt& at, const std::vector<bgp::Asn>& ases, const net::Prefix& victim,
              const AsnSet& origins, const AsnSet& attackers, AttackerStrategy strategy);

/// False-alarm classification: an alarm is true when any attacker appears
/// among its offending origins or either list it compared.
bool implicates_attacker(const MoasAlarm& alarm, const AsnSet& attackers);

/// One single-prefix Experiment run: its inputs, registry and deployment.
/// It is built before the engine (the engine needs network_seed) and so
/// outlives it; nothing it holds calls into the engine once finish() has
/// returned.
struct Run {
  /// Builds the truth DB and the primary resolver (drawing the Dns/Irr
  /// seed), then draws the network seed.
  Run(const topo::AsGraph& graph, const ExperimentConfig& config, const AsnSet& origins,
      const AsnSet& attackers, util::Rng& rng);

  /// An IRR mirror of the truth DB, knobbed by irr_staleness; a stale
  /// lookup finds no record. Draws its seed.
  std::shared_ptr<OriginResolver> make_irr(util::Rng& rng) const;

  /// Put a CachingResolver reading `now` in front of `resolver` when
  /// resolver_cache_ttl > 0.
  void cache_resolver(CachingResolver::TimeFn now);

  /// Install the detectors (the Partial capable sample), then mark the
  /// community-stripping routers (Section 4.3): a seeded strip_fraction of
  /// the non-origin ASes drop the optional transitive attribute on export.
  void deploy(util::Rng& rng, const RouterAt& at);

  /// The engine-independent end of a run, after propagation and after the
  /// caller collected its engine and resolver metrics into result.metrics:
  /// outcome scoring, detector metrics, alarm accounting (lifecycle
  /// counts, settle histogram, false alarms), the counters read back out of
  /// the registry, the structural cutoff and the final RIBs. Returns the
  /// earliest attacker-implicating alarm time (-1 if none).
  double finish(RunResult& result, const RouterAt& at) const;

  const topo::AsGraph& graph;
  const ExperimentConfig& config;
  const AsnSet& origins;
  const AsnSet& attackers;
  const std::vector<bgp::Asn> ases;
  const net::Prefix victim;
  std::shared_ptr<PrefixOriginDb> truth;
  /// The primary resolver (cached after cache_resolver); null under
  /// ResolverKind::None, which leaves detectors alarm-only.
  std::shared_ptr<OriginResolver> resolver;
  std::uint64_t network_seed = 0;
  std::shared_ptr<AlarmLog> alarms;
  std::vector<std::shared_ptr<MoasDetector>> detectors;
};

}  // namespace moas::core::scenario
