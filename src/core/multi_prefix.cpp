#include "moas/core/multi_prefix.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "moas/bgp/intern.h"
#include "moas/core/alarm.h"
#include "moas/core/detector.h"
#include "moas/core/resolver.h"
#include "moas/sim/wave_engine.h"
#include "moas/util/assert.h"
#include "moas/util/rng.h"
#include "moas/util/thread_pool.h"
#include "scenario.h"

namespace moas::core {

net::Prefix multi_prefix_victim(std::size_t index) {
  MOAS_REQUIRE(index < 65536, "victim prefix index out of the 10.0.0.0/8 /24 space");
  return net::Prefix(net::Ipv4Addr(10, static_cast<std::uint8_t>(index / 256),
                                   static_cast<std::uint8_t>(index % 256), 0),
                     24);
}

namespace {

struct PrefixPlan {
  net::Prefix victim;
  AsnSet origins;
  bgp::Asn attacker = bgp::kNoAs;  // kNoAs: this prefix is not attacked
};

// Pre-interning layout model (see MultiPrefixResult::baseline_rib_bytes).
// Red-black node header: color + three pointers, the libstdc++ layout.
constexpr std::size_t kMapNodeOverhead = 32;
// Handle -> inline growth: AsPath, CommunitySet and LargeCommunitySet were
// each a 24-byte std::vector header before interning; each is an 8-byte
// pointer now.
constexpr std::size_t kInlineGrowth = 3 * 16;

// Heap bytes a private (un-shared) copy of this route's attributes would
// own: the segment vectors behind the path plus both community-value
// vectors.
std::size_t deep_attr_bytes(const bgp::Route& route) {
  std::size_t bytes = 0;
  for (const bgp::PathSegment& segment : route.attrs.path.segments()) {
    bytes += sizeof(bgp::PathSegment) + segment.asns.size() * sizeof(bgp::Asn);
  }
  bytes += route.attrs.communities.size() * sizeof(bgp::Community);
  bytes += route.attrs.large_communities.size() * sizeof(bgp::LargeCommunity);
  return bytes;
}

std::size_t baseline_entry_bytes(const bgp::Route& route) {
  return sizeof(bgp::RibEntry) + kInlineGrowth + kMapNodeOverhead + deep_attr_bytes(route);
}

}  // namespace

MultiPrefixResult run_multi_prefix(const topo::AsGraph& graph,
                                   const MultiPrefixConfig& config,
                                   const ConvergedRouterVisitor& visit) {
  MOAS_REQUIRE(config.num_prefixes >= 1, "workload needs at least one prefix");
  MOAS_REQUIRE(config.block_size >= 1, "block size must be >= 1");
  MOAS_REQUIRE(config.origins_per_prefix >= 1, "each prefix needs an origin");
  MOAS_REQUIRE(config.attacked_fraction >= 0.0 && config.attacked_fraction <= 1.0,
               "attacked fraction must be in [0, 1]");
  MOAS_REQUIRE(config.deployment_fraction >= 0.0 && config.deployment_fraction <= 1.0,
               "deployment_fraction must be in [0, 1]");
  // The pool workers intern into the process arena, whatever arena the
  // caller installed: two arenas in one run would break handle equality.
  MOAS_REQUIRE(!bgp::intern::in_scoped_arena(),
               "run_multi_prefix interns into the process arena: call it outside a "
               "ScopedArena");

  const std::vector<bgp::Asn> all_ases = graph.nodes();
  const std::vector<bgp::Asn> stubs = graph.stubs();
  MOAS_REQUIRE(stubs.size() >= config.origins_per_prefix,
               "not enough stubs to place the per-prefix origins");

  const auto attacked = static_cast<std::size_t>(std::lround(
      config.attacked_fraction * static_cast<double>(config.num_prefixes)));
  // Attackers are distinct across prefixes (one export filter per router);
  // keep the rejection-sampling draw below bounded.
  MOAS_REQUIRE(attacked * 2 <= all_ases.size(),
               "attacked prefixes must not exceed half the AS population");

  util::Rng rng(config.seed);

  // Plan every prefix up front (prefix-major draw order, reproducible from
  // the seed alone), and record the ground truth the oracle registry serves.
  auto truth = std::make_shared<PrefixOriginDb>();
  std::vector<PrefixPlan> plans;
  plans.reserve(config.num_prefixes);
  AsnSet all_attackers;
  for (std::size_t i = 0; i < config.num_prefixes; ++i) {
    PrefixPlan plan;
    plan.victim = multi_prefix_victim(i);
    for (std::size_t j : rng.sample_indices(stubs.size(), config.origins_per_prefix)) {
      plan.origins.insert(stubs[j]);
    }
    if (i < attacked) {
      for (;;) {
        const bgp::Asn candidate = all_ases[rng.index(all_ases.size())];
        if (all_attackers.contains(candidate) || plan.origins.contains(candidate)) continue;
        plan.attacker = candidate;
        all_attackers.insert(candidate);
        break;
      }
    }
    truth->set(plan.victim, plan.origins);
    plans.push_back(std::move(plan));
  }

  // The pool drains the engine's sweeps and splits the RIB accounting. The
  // oracle resolver and the shared alarm log are the only state detectors
  // on different routers touch, and both take concurrent calls.
  util::ThreadPool pool(util::ThreadPool::resolve_jobs(config.jobs));
  sim::WaveEngine wave(graph, config.policy, &pool);

  // Detector deployment — the single-prefix wave-run wiring: capable ASes
  // get an import validator against the oracle, attackers never do. The
  // routers own the detectors.
  const scenario::RouterAt at = [&wave](bgp::Asn asn) -> bgp::Router& {
    return wave.router(asn);
  };
  auto alarms = std::make_shared<AlarmLog>();
  const auto detectors = scenario::install_detectors(
      config.deployment, config.deployment_fraction, all_ases, all_attackers, alarms,
      std::make_shared<OracleResolver>(truth), rng, at);

  // Block-iterated origination: seed one block's valid routes and attacks,
  // run to the fixpoint, move on. The converged tables are block-size
  // independent; the in-flight update set is not — that is the memory knob.
  MultiPrefixResult result;
  result.prefixes = config.num_prefixes;
  result.attacked = attacked;
  for (std::size_t start = 0; start < plans.size(); start += config.block_size) {
    const std::size_t end = std::min(start + config.block_size, plans.size());
    for (std::size_t i = start; i < end; ++i) {
      const PrefixPlan& plan = plans[i];
      const bgp::PathAttributes origin_attrs = scenario::origin_attrs(plan.origins);
      for (bgp::Asn origin : plan.origins) {
        wave.router(origin).originate(plan.victim, origin_attrs.communities,
                                      origin_attrs.large_communities);
      }
      if (plan.attacker != bgp::kNoAs) {
        launch_attack(wave.router(plan.attacker),
                      scenario::attack_plan(plan.attacker, plan.victim, plan.origins,
                                            config.strategy));
      }
    }
    const auto block_start = std::chrono::steady_clock::now();
    wave.propagate();
    result.propagation_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - block_start)
            .count();
    ++result.blocks;
  }

  // Scoring: the fig9/10 outcome tally per attacked prefix, summed.
  for (const PrefixPlan& plan : plans) {
    if (plan.attacker == bgp::kNoAs) continue;
    const scenario::Outcome outcome = scenario::score(at, all_ases, plan.victim, plan.origins,
                                                      {plan.attacker}, config.strategy);
    result.adopted_false += outcome.adopted_false;
    result.adopted_valid += outcome.adopted_valid;
    result.no_route += outcome.no_route;
  }

  result.alarms = alarms->size();
  for (const MoasAlarm& alarm : alarms->alarms()) {
    if (!scenario::implicates_attacker(alarm, all_attackers)) ++result.false_alarms;
  }

  if (visit) {
    for (bgp::Asn asn : all_ases) visit(wave.router(asn));
  }

  // RIB accounting, one partial sum per chunk of routers; integer sums, so
  // the totals do not depend on the split.
  struct Tally {
    std::size_t routes_installed = 0;
    std::size_t rib_entries = 0;
    std::size_t rib_bytes = 0;
    std::size_t baseline_rib_bytes = 0;
  };
  constexpr std::size_t kChunk = 256;
  std::vector<Tally> tallies((all_ases.size() + kChunk - 1) / kChunk);
  pool.parallel_for(tallies.size(), [&](std::size_t c) {
    Tally& tally = tallies[c];
    std::vector<const bgp::RibEntry*> candidates;
    const std::size_t end = std::min(all_ases.size(), (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) {
      const bgp::Router& router = wave.router(all_ases[i]);
      const bgp::AdjRibIn& adj = router.adj_rib_in();
      const bgp::LocRib& loc = router.loc_rib();
      tally.routes_installed += loc.size();
      tally.rib_bytes += adj.container_bytes() + loc.container_bytes();
      for (const net::Prefix& prefix : adj.prefixes()) {
        tally.baseline_rib_bytes += kMapNodeOverhead;  // outer map node per row
        adj.candidates(prefix, candidates);
        for (const bgp::RibEntry* entry : candidates) {
          ++tally.rib_entries;
          tally.baseline_rib_bytes += baseline_entry_bytes(entry->route);
        }
      }
      for (const net::Prefix& prefix : loc.prefixes()) {
        ++tally.rib_entries;
        tally.baseline_rib_bytes += baseline_entry_bytes(loc.best(prefix)->route);
      }
    }
  });
  for (const Tally& tally : tallies) {
    result.routes_installed += tally.routes_installed;
    result.rib_entries += tally.rib_entries;
    result.rib_bytes += tally.rib_bytes;
    result.baseline_rib_bytes += tally.baseline_rib_bytes;
  }
  for (const auto& detector : detectors) result.detector_bytes += detector->state_bytes();
  return result;
}

}  // namespace moas::core
