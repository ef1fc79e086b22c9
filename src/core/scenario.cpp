#include "scenario.h"

#include <algorithm>
#include <cmath>

#include "moas/topo/metrics.h"
#include "moas/topo/route_views.h"

namespace moas::core::scenario {

std::vector<std::shared_ptr<MoasDetector>> install_detectors(
    Deployment deployment, double fraction, const std::vector<bgp::Asn>& ases,
    const AsnSet& attackers, const std::shared_ptr<AlarmLog>& alarms,
    const std::shared_ptr<OriginResolver>& resolver, util::Rng& rng, const RouterAt& at) {
  AsnSet capable;
  if (deployment == Deployment::Full) {
    capable.insert(ases.begin(), ases.end());
  } else if (deployment == Deployment::Partial) {
    const auto want =
        static_cast<std::size_t>(std::lround(fraction * static_cast<double>(ases.size())));
    for (std::size_t i : rng.sample_indices(ases.size(), want)) capable.insert(ases[i]);
  }
  std::vector<std::shared_ptr<MoasDetector>> detectors;
  for (bgp::Asn asn : capable) {
    if (attackers.contains(asn)) continue;
    auto detector = std::make_shared<MoasDetector>(alarms, resolver);
    at(asn).set_validator(detector);
    detectors.push_back(std::move(detector));
  }
  return detectors;
}

bgp::PathAttributes origin_attrs(const AsnSet& origins) {
  bgp::PathAttributes attrs;  // width-split MOAS list carrier
  if (origins.size() > 1) attach_moas_list(attrs, origins);
  return attrs;
}

AttackPlan attack_plan(bgp::Asn attacker, const net::Prefix& victim, const AsnSet& origins,
                       AttackerStrategy strategy) {
  AttackPlan plan;
  plan.attacker = attacker;
  plan.target = victim;
  plan.valid_origins = origins;
  plan.strategy = strategy;
  return plan;
}

net::Prefix scored_prefix(const net::Prefix& victim, AttackerStrategy strategy,
                          const AsnSet& attackers) {
  if (strategy == AttackerStrategy::SubPrefixHijack && !attackers.empty()) {
    return victim.children().first;
  }
  return victim;
}

Outcome score(const RouterAt& at, const std::vector<bgp::Asn>& ases, const net::Prefix& victim,
              const AsnSet& origins, const AsnSet& attackers, AttackerStrategy strategy) {
  const net::Prefix scored = scored_prefix(victim, strategy, attackers);
  Outcome outcome;
  for (bgp::Asn asn : ases) {
    if (attackers.contains(asn)) continue;
    ++outcome.population;
    const bgp::Router& router = at(asn);
    const auto hijacked_origin = router.best_origin(scored);
    if (hijacked_origin && attackers.contains(*hijacked_origin)) {
      ++outcome.adopted_false;
      continue;
    }
    const auto valid_origin = router.best_origin(victim);
    if (!valid_origin) {
      ++outcome.no_route;
    } else if (origins.contains(*valid_origin)) {
      ++outcome.adopted_valid;
    } else if (attackers.contains(*valid_origin)) {
      ++outcome.adopted_false;
    }
  }
  return outcome;
}

bool implicates_attacker(const MoasAlarm& alarm, const AsnSet& attackers) {
  return std::any_of(attackers.begin(), attackers.end(), [&](bgp::Asn a) {
    return alarm.offending_origins.contains(a) || alarm.observed_list.contains(a) ||
           alarm.reference_list.contains(a);
  });
}

Run::Run(const topo::AsGraph& graph_in, const ExperimentConfig& config_in,
         const AsnSet& origins_in, const AsnSet& attackers_in, util::Rng& rng)
    : graph(graph_in),
      config(config_in),
      origins(origins_in),
      attackers(attackers_in),
      ases(graph_in.nodes()),
      victim(topo::prefix_for_asn(*origins_in.begin())),
      truth(std::make_shared<PrefixOriginDb>()),
      alarms(std::make_shared<AlarmLog>()) {
  truth->set(victim, origins);
  switch (config.resolver) {
    case ResolverKind::Oracle:
      resolver = std::make_shared<OracleResolver>(truth);
      break;
    case ResolverKind::Dns: {
      DnsResolver::Config dns;
      dns.unavailability = config.dns_unavailability;
      dns.forgery = config.dns_forgery;
      if (!attackers.empty()) dns.forged_answer = attackers;
      dns.seed = rng.next();
      resolver = std::make_shared<DnsResolver>(truth, dns);
      break;
    }
    case ResolverKind::Irr:
      resolver = make_irr(rng);
      break;
    case ResolverKind::None:
      break;
  }
  network_seed = rng.next();
}

std::shared_ptr<OriginResolver> Run::make_irr(util::Rng& rng) const {
  auto stale = std::make_shared<PrefixOriginDb>();
  IrrResolver::Config irr;
  irr.staleness = config.irr_staleness;
  irr.seed = rng.next();
  return std::make_shared<IrrResolver>(truth, stale, irr);
}

void Run::cache_resolver(CachingResolver::TimeFn now) {
  if (!resolver || config.resolver_cache_ttl <= 0.0) return;
  CachingResolver::Config cache;
  cache.ttl = config.resolver_cache_ttl;
  cache.negative_ttl = std::min(config.resolver_cache_ttl, 5.0);
  resolver = std::make_shared<CachingResolver>(resolver, std::move(now), cache);
}

void Run::deploy(util::Rng& rng, const RouterAt& at) {
  detectors = install_detectors(config.deployment, config.deployment_fraction, ases, attackers,
                                alarms, resolver, rng, at);
  if (config.strip_fraction > 0.0) {
    std::vector<bgp::Asn> pool = ases;
    std::erase_if(pool, [&](bgp::Asn asn) { return origins.contains(asn); });
    const auto want = static_cast<std::size_t>(
        std::lround(config.strip_fraction * static_cast<double>(pool.size())));
    for (std::size_t i : rng.sample_indices(pool.size(), want)) {
      at(pool[i]).set_strip_communities(true);
    }
  }
}

double Run::finish(RunResult& result, const RouterAt& at) const {
  const Outcome outcome = score(at, ases, victim, origins, attackers, config.strategy);
  result.total_ases = ases.size();
  result.attackers = attackers.size();
  result.population = outcome.population;
  result.adopted_false = outcome.adopted_false;
  result.adopted_valid = outcome.adopted_valid;
  result.no_route = outcome.no_route;
  result.origin_set = origins;
  result.attacker_set = attackers;

  obs::MetricsRegistry& m = result.metrics;
  for (const auto& detector : detectors) detector->collect_metrics(m);

  result.alarms = alarms->size();
  result.alarms_pending = alarms->count_state(MoasAlarm::State::Pending);
  result.alarms_resolved = alarms->count_state(MoasAlarm::State::Resolved);
  result.alarms_expired = alarms->count_state(MoasAlarm::State::Expired);
  // Settle latency (alarm raised -> terminal state): instantaneous on the
  // synchronous path, and exactly the resolution latency the degraded mode
  // added on the async path — the bounded-inflation gate reads this.
  auto& settle = m.histogram("detector.alarm_settle_latency", kAlarmLatencySpec);
  double first_alarm_at = -1.0;
  for (const MoasAlarm& alarm : alarms->alarms()) {
    if (alarm.settled_at >= 0.0) settle.add(alarm.settled_at - alarm.at);
    if (!implicates_attacker(alarm, attackers)) {
      ++result.false_alarms;
    } else if (first_alarm_at < 0.0 || alarm.at < first_alarm_at) {
      first_alarm_at = alarm.at;
    }
  }

  // The registry is the one copy of the run's counters; the five RunResult
  // copies below exist for the benchmark harness (experiment.h). The
  // resolver names exist even for resolver-less runs, so manifest consumers
  // can rely on them unconditionally.
  m.count("resolver.queries", 0);
  m.count("resolver.cache_hits", 0);
  result.rejections = static_cast<std::size_t>(m.counter("detector.rejections"));
  result.messages = m.counter("network.messages_sent");
  result.withdrawals = m.counter("router.withdrawals_sent");
  result.announcements = m.counter("router.announcements_sent");
  result.resolver_queries = m.counter("resolver.queries");

  if (!attackers.empty()) {
    result.structural_cutoff = topo::fraction_cut_off(graph, origins, attackers);
  }
  if (config.keep_final_ribs) {
    for (bgp::Asn asn : ases) {
      const bgp::LocRib& rib = at(asn).loc_rib();
      for (const net::Prefix& prefix : rib.prefixes()) {
        result.final_ribs.push_back({asn, *rib.best(prefix)});
      }
    }
  }
  return first_alarm_at;
}

}  // namespace moas::core::scenario
