#include "moas/core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "moas/bgp/intern.h"
#include "moas/chaos/engine.h"
#include "moas/chaos/invariants.h"
#include "moas/core/moas_invariants.h"
#include "moas/sim/wave_engine.h"
#include "moas/util/assert.h"
#include "moas/util/stats.h"
#include "moas/util/thread_pool.h"
#include "scenario.h"

namespace moas::core {

const char* to_string(Deployment deployment) {
  switch (deployment) {
    case Deployment::None: return "normal-bgp";
    case Deployment::Partial: return "partial-moas";
    case Deployment::Full: return "full-moas";
  }
  return "?";
}

const char* to_string(Engine engine) {
  switch (engine) {
    case Engine::Event: return "event";
    case Engine::Wave: return "wave";
  }
  return "?";
}

Experiment::Experiment(const topo::AsGraph& graph, ExperimentConfig config)
    : graph_(&graph), config_(config) {
  MOAS_REQUIRE(graph.node_count() >= 3, "topology too small");
  MOAS_REQUIRE(graph.is_connected(), "experiment topology must be connected");
  MOAS_REQUIRE(!graph.stubs().empty(), "topology has no stub ASes to victimize");
  MOAS_REQUIRE(config.num_origins >= 1 && config.num_origins <= 3,
               "paper evaluates 1-2 origins; 3 supported for ablations");
  MOAS_REQUIRE(config.deployment_fraction >= 0.0 && config.deployment_fraction <= 1.0,
               "deployment fraction must be a probability");
  MOAS_REQUIRE(config.strip_fraction >= 0.0 && config.strip_fraction <= 1.0,
               "strip fraction must be a probability");
  MOAS_REQUIRE(config.resolver_cache_ttl >= 0.0, "resolver cache TTL must be non-negative");
  MOAS_REQUIRE(!config.graceful_restart || config.gr_restart_time > 0.0,
               "graceful restart needs a positive restart time");
  MOAS_REQUIRE(!config.async_fallback_irr || config.async_resolution.has_value(),
               "the IRR fallback source needs async_resolution");
  MOAS_REQUIRE(!config.registry_outage.has_value() || config.async_resolution.has_value(),
               "registry outages act on the async resolution path");
  MOAS_REQUIRE(!config.async_resolution.has_value() || config.resolver != ResolverKind::None,
               "async resolution needs a backend resolver");
  if (config.engine == Engine::Wave) {
    // The wave engine has no clock: every event-time knob must be loudly
    // absent rather than silently ignored.
    MOAS_REQUIRE(config.mrai == 0.0,
                 "wave engine: MRAI pacing is an event-time concept — set mrai = 0");
    MOAS_REQUIRE(!config.prefer_established,
                 "wave engine: route-age preference needs arrival times — set "
                 "prefer_established = false (ties break by lowest neighbor ASN)");
    MOAS_REQUIRE(!config.churn.has_value(),
                 "wave engine: background churn schedules replay on the event clock");
    MOAS_REQUIRE(!config.async_resolution.has_value(),
                 "wave engine: asynchronous resolution is clock-driven — use a "
                 "synchronous resolver");
    MOAS_REQUIRE(!config.graceful_restart,
                 "wave engine: graceful restart needs restart timers");
    MOAS_REQUIRE(!config.revised_error_handling,
                 "wave engine: error handling acts on wire-level faults the wave "
                 "model does not carry");
    MOAS_REQUIRE(config.trace_level == obs::TraceLevel::Off && !config.keep_trace,
                 "wave engine: trace events are timestamped — latency metrics are "
                 "meaningless without a clock");
    MOAS_REQUIRE(!config.check_invariants,
                 "wave engine: the invariant checker audits a bgp::Network");
  }
}

bgp::AsnSet Experiment::draw_origins(util::Rng& rng) const {
  const std::vector<bgp::Asn> stubs = graph_->stubs();
  MOAS_REQUIRE(stubs.size() >= config_.num_origins, "not enough stubs for origins");
  bgp::AsnSet origins;
  for (std::size_t i : rng.sample_indices(stubs.size(), config_.num_origins)) {
    origins.insert(stubs[i]);
  }
  return origins;
}

bgp::AsnSet Experiment::draw_attackers(std::size_t count, const bgp::AsnSet& origins,
                                       util::Rng& rng) const {
  std::vector<bgp::Asn> pool;
  switch (config_.placement) {
    case AttackerPlacement::Anywhere: pool = graph_->nodes(); break;
    case AttackerPlacement::StubsOnly: pool = graph_->stubs(); break;
    case AttackerPlacement::TransitOnly: pool = graph_->transits(); break;
  }
  std::erase_if(pool, [&](bgp::Asn asn) { return origins.contains(asn); });
  MOAS_REQUIRE(count <= pool.size(), "not enough candidate attackers");
  bgp::AsnSet attackers;
  for (std::size_t i : rng.sample_indices(pool.size(), count)) attackers.insert(pool[i]);
  return attackers;
}

RunResult Experiment::run_once(std::size_t num_attackers, util::Rng& rng) const {
  const bgp::AsnSet origins = draw_origins(rng);
  const bgp::AsnSet attackers = draw_attackers(num_attackers, origins, rng);
  return run_with(origins, attackers, rng.next());
}

RunResult Experiment::run_with(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                               std::uint64_t seed) const {
  MOAS_REQUIRE(!origins.empty(), "need at least one valid origin");
  for (bgp::Asn o : origins) {
    MOAS_REQUIRE(graph_->has_node(o), "origin not in topology");
    MOAS_REQUIRE(!attackers.contains(o), "an origin cannot also be an attacker");
  }
  // The run interns into its own arena, freed when it returns: a sweep
  // process then holds one run's paths, not every finished run's. Both
  // engines run on this thread, and run_wave passes its engine no pool, so
  // every intern of the run lands here; Run::finish moves the final RIBs
  // into the process arena.
  const bgp::intern::ScopedArena arena;
  if (config_.engine == Engine::Wave) return run_wave(origins, attackers, seed);
  return run_event(origins, attackers, seed);
}

RunResult Experiment::run_event(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                                std::uint64_t seed) const {
  util::Rng rng(seed);
  scenario::Run run(*graph_, config_, origins, attackers, rng);
  const net::Prefix& victim = run.victim;

  // Build the network.
  bgp::Network::Config net_config;
  net_config.mode = config_.policy;
  net_config.graceful_restart = config_.graceful_restart;
  net_config.gr_restart_time = config_.gr_restart_time;
  net_config.revised_error_handling = config_.revised_error_handling;
  net_config.seed = run.network_seed;
  bgp::Network network(net_config);
  const scenario::RouterAt router_at = [&network](bgp::Asn asn) -> bgp::Router& {
    return network.router(asn);
  };

  // Per-run trace bus, stamped from the run's own clock. Runs are
  // self-contained and single-threaded (the PR 4 contract), so one bus per
  // run is the "per-thread buffer": the sweep harness serializes buses in
  // plan order and the merged stream is bit-identical for any --jobs.
  const bool tracing = config_.trace_level != obs::TraceLevel::Off;
  obs::TraceBus bus(config_.trace_level, &network.clock());
  if (tracing) network.set_trace(&bus);

  for (bgp::Asn asn : run.ases) network.add_router(asn);
  for (const auto& edge : graph_->edges()) {
    network.connect(edge.a, edge.b, edge.rel_of_b);
  }

  // Churn-aware resolver cache: under session churn the same prefix alarms
  // repeatedly, and without a cache every alarm is a fresh registry lookup.
  run.cache_resolver([&network] { return network.clock().now(); });

  // Asynchronous fault-tolerant resolution: the (possibly cached) primary
  // becomes source 0 of the fallback chain, optionally backed by an IRR
  // mirror, with a seeded registry-outage schedule replayed against both.
  // Declared after `network` so in-flight requests die before the clock.
  std::shared_ptr<AsyncResolver> async;
  std::shared_ptr<chaos::RegistryOutageSchedule> outage_schedule;
  if (config_.async_resolution && run.resolver) {
    AsyncResolver::Config async_config = *config_.async_resolution;
    async_config.seed ^= rng.next();  // one run seed reproduces latency draws
    async = std::make_shared<AsyncResolver>(network.clock(), async_config);
    async->add_source(run.resolver);
    if (config_.async_fallback_irr) async->add_source(run.make_irr(rng));
    if (config_.registry_outage) {
      chaos::RegistryOutageConfig outage = *config_.registry_outage;
      outage.seed ^= seed;  // same mixing rule as churn
      outage_schedule = std::make_shared<chaos::RegistryOutageSchedule>(
          chaos::compile_registry_outages(outage));
      async->set_outage_schedule(outage_schedule);
    }
    if (tracing) async->set_trace(&bus);
  }

  if (tracing) run.alarms->set_trace(&bus);
  run.deploy(rng, router_at);
  for (const auto& detector : run.detectors) {
    if (async) detector->set_async_resolver(async);
    if (tracing) detector->set_trace(&bus);
  }

  if (config_.mrai > 0.0) {
    for (bgp::Asn asn : run.ases) network.router(asn).set_mrai(config_.mrai);
  }
  if (!config_.prefer_established) {
    // Equal-key tie contests then resolve by lowest neighbor ASN instead of
    // route age — the timing-independent mode the wave engine matches.
    for (bgp::Asn asn : run.ases) network.router(asn).set_prefer_established(false);
  }

  // Background churn: compile the seeded fault schedule for this topology
  // and arm it on the shared clock, so faults interleave with the workload.
  // The engine clears its message tap on destruction — it must die before
  // `network`, hence the declaration after it.
  std::unique_ptr<chaos::ChaosEngine> engine;
  if (config_.churn) {
    chaos::ScheduleConfig churn = *config_.churn;
    churn.seed ^= seed;  // one run seed reproduces workload and faults alike
    engine = std::make_unique<chaos::ChaosEngine>(
        network, chaos::compile_schedule(churn, network.links(), network.asns()));
    engine->arm();
  }

  const bgp::PathAttributes origin_attrs = scenario::origin_attrs(origins);
  for (bgp::Asn origin : origins) {
    const double at = rng.uniform01() * 0.5;
    network.clock().schedule_after(at, [&network, origin, victim, origin_attrs] {
      network.router(origin).originate(victim, origin_attrs.communities,
                                       origin_attrs.large_communities);
    });
  }

  RunResult result;
  if (config_.converge_before_attack) {
    // Phase 1: the legitimate announcements converge (steady state).
    const auto phase_start = std::chrono::steady_clock::now();
    result.quiesced = network.run_to_quiescence(config_.max_events);
    result.propagation_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - phase_start)
            .count();
    MOAS_ENSURE(result.quiesced, "valid-route convergence failed within the event cap");
  }

  // Phase 2 (or a single racing phase): the fault/attack is injected. In
  // the racing model the attacker is compromised from t = 0 — its
  // suppression filter is armed before any valid announcement can transit
  // it (see install_suppression) — and only the false origination races the
  // valid ones. Under converge_before_attack the attacker instead behaves
  // honestly through phase 1 (the steady state includes it) and turns at
  // injection time.
  for (bgp::Asn attacker : attackers) {
    const AttackPlan plan = scenario::attack_plan(attacker, victim, origins, config_.strategy);
    if (!config_.converge_before_attack) {
      install_suppression(network.router(attacker), plan);
    }
    const double at = rng.uniform01() * 0.5;
    // Injection time = earliest false origination on the run's clock; the
    // latency metrics below measure from here.
    const sim::Time inject_at = network.clock().now() + at;
    if (result.attack_injected_at < 0.0 || inject_at < result.attack_injected_at) {
      result.attack_injected_at = inject_at;
    }
    network.clock().schedule_after(at, [&network, plan] {
      if (obs::trace_wants(network.trace(), obs::TraceLevel::Summary)) {
        network.trace()->emit(
            obs::TraceEvent(obs::EventKind::AttackInjected, plan.attacker)
                .with_prefix(plan.target));
      }
      launch_attack(network, plan);
    });
  }
  const auto drain_start = std::chrono::steady_clock::now();
  result.quiesced = network.run_to_quiescence(config_.max_events);
  result.propagation_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - drain_start)
          .count();
  MOAS_ENSURE(result.quiesced, "simulation failed to quiesce within the event cap");

  // Metrics snapshot. Resolver counters ("resolver.*") come straight from
  // the components: the async resolver collects its whole fallback chain
  // (each source's backend included); otherwise the possibly-cached
  // synchronous resolver reports.
  result.metrics = network.collect_metrics();
  if (engine) engine->collect_metrics(result.metrics);
  if (async) {
    async->collect_metrics(result.metrics);
    result.outage_log = outage_schedule ? outage_schedule->to_string() : std::string();
  } else if (run.resolver) {
    run.resolver->collect_metrics(result.metrics);
  }

  if (engine) {
    result.fault_events = engine->schedule().events.size();
    result.fault_log = engine->log_text();
  }
  if (config_.check_invariants) {
    chaos::NetworkInvariantChecker checker;
    register_moas_invariants(checker, run.alarms);
    if (engine) {
      chaos::register_corruption_invariants(checker, *engine);
      for (const auto& [from, to] : engine->dirty_links()) {
        checker.exclude_direction(from, to);
      }
    }
    for (const auto& violation : checker.check(network)) {
      result.invariant_report.push_back(violation.to_string());
    }
  }

  const double first_alarm_at = run.finish(result, router_at);
  if (first_alarm_at >= 0.0 && result.attack_injected_at >= 0.0) {
    result.first_alarm_latency = std::max(0.0, first_alarm_at - result.attack_injected_at);
  }

  // Eviction latency: replay the route-change stream and track the set of
  // non-attacker routers whose best route for the scored prefix points at an
  // attacker (RoutePreferred carries the new best origin in value2; any
  // other change at the prefix clears the router from the set). The latency
  // is from injection to the moment that set last became empty.
  if (obs::kTraceCompiledIn && result.attack_injected_at >= 0.0 &&
      bus.wants(obs::TraceLevel::Summary)) {
    const net::Prefix scored_prefix =
        scenario::scored_prefix(victim, config_.strategy, attackers);
    bgp::AsnSet on_false_route;
    double last_cleared = -1.0;
    bool ever_adopted = false;
    for (const obs::TraceEvent& event : bus.events()) {
      if (event.kind != obs::EventKind::RoutePreferred &&
          event.kind != obs::EventKind::RouteDepreferred) {
        continue;
      }
      if (!event.has_prefix || !(event.prefix == scored_prefix)) continue;
      if (attackers.contains(event.actor)) continue;
      const bool now_false = event.kind == obs::EventKind::RoutePreferred &&
                             event.value2 > 0 &&
                             attackers.contains(static_cast<bgp::Asn>(event.value2));
      if (now_false) {
        ever_adopted = true;
        on_false_route.insert(event.actor);
      } else if (on_false_route.erase(event.actor) > 0 && on_false_route.empty()) {
        last_cleared = event.at;
      }
    }
    if (!ever_adopted) {
      result.eviction_latency = 0.0;  // the false route never took hold
    } else if (!on_false_route.empty()) {
      result.false_route_stuck = true;  // still installed at quiescence
    } else {
      result.eviction_latency = std::max(0.0, last_cleared - result.attack_injected_at);
    }
  }

  if (config_.keep_trace) result.trace = bus.take();
  return result;
}

RunResult Experiment::run_wave(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                               std::uint64_t seed) const {
  util::Rng rng(seed);
  // The Run constructor draws the network seed too, which the wave engine
  // has no use for: the deployment and stripping samples then land on the
  // same stream offsets as run_event's, so one PlannedRun resolves to the
  // same capable set under either engine.
  scenario::Run run(*graph_, config_, origins, attackers, rng);

  sim::WaveEngine wave(*graph_, config_.policy);
  const scenario::RouterAt router_at = [&wave](bgp::Asn asn) -> bgp::Router& {
    return wave.router(asn);
  };

  // Resolver cache on a frozen clock: entries never expire, which is the
  // right model for a timeless run — within one run the registry answer for
  // a prefix is fixed anyway.
  run.cache_resolver([] { return 0.0; });
  run.deploy(rng, router_at);

  // No clock, so no scheduling jitter: valid originations are seeded, then
  // (racing mode) the attacks, and the sweeps run everything to the
  // fixpoint together. Under converge_before_attack the valid routes reach
  // their fixpoint first and the attack hits the converged state
  // incrementally — the wave analog of the two-phase event run.
  const bgp::PathAttributes origin_attrs = scenario::origin_attrs(origins);
  for (bgp::Asn origin : origins) {
    wave.router(origin).originate(run.victim, origin_attrs.communities,
                                  origin_attrs.large_communities);
  }

  RunResult result;
  const auto propagate = [&] {
    const auto start = std::chrono::steady_clock::now();
    wave.propagate();
    result.propagation_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  if (config_.converge_before_attack) propagate();
  for (bgp::Asn attacker : attackers) {
    launch_attack(wave.router(attacker),
                  scenario::attack_plan(attacker, run.victim, origins, config_.strategy));
  }
  propagate();
  result.quiesced = true;  // propagate() returns only at the fixpoint

  wave.collect_metrics(result.metrics);
  if (run.resolver) run.resolver->collect_metrics(result.metrics);
  // attack_injected_at / first_alarm_latency / eviction_latency stay -1:
  // a timeless engine has no latencies to report.
  run.finish(result, router_at);
  return result;
}

SweepPlan Experiment::plan_sweep(const std::vector<double>& attacker_fractions,
                                 std::size_t origin_sets, std::size_t attacker_sets,
                                 util::Rng& rng) const {
  MOAS_REQUIRE(origin_sets > 0 && attacker_sets > 0,
               "empty run budget: origin_sets and attacker_sets must both be >= 1");
  SweepPlan plan;
  plan.attacker_fractions = attacker_fractions;
  plan.origin_sets = origin_sets;
  plan.attacker_sets = attacker_sets;
  plan.runs.reserve(attacker_fractions.size() * origin_sets * attacker_sets);
  for (std::size_t p = 0; p < attacker_fractions.size(); ++p) {
    const double fraction = attacker_fractions[p];
    MOAS_REQUIRE(fraction >= 0.0 && fraction < 1.0, "attacker fraction must be in [0, 1)");
    std::size_t num_attackers = static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(graph_->node_count())));
    if (fraction > 0.0 && num_attackers == 0) num_attackers = 1;
    for (std::size_t i = 0; i < origin_sets; ++i) {
      const bgp::AsnSet origins = draw_origins(rng);
      for (std::size_t j = 0; j < attacker_sets; ++j) {
        PlannedRun run;
        run.point = p;
        run.origins = origins;
        run.attackers = draw_attackers(num_attackers, origins, rng);
        run.seed = rng.next();
        plan.runs.push_back(std::move(run));
      }
    }
  }
  return plan;
}

std::vector<RunResult> Experiment::execute_plan(const SweepPlan& plan,
                                                util::ThreadPool& pool) const {
  std::vector<RunResult> results(plan.runs.size());
  pool.parallel_for(plan.runs.size(), [&](std::size_t i) {
    const PlannedRun& run = plan.runs[i];
    results[i] = run_with(run.origins, run.attackers, run.seed);
  });
  return results;
}

std::vector<SweepPoint> Experiment::reduce_plan(const SweepPlan& plan,
                                                const std::vector<RunResult>& results) const {
  MOAS_REQUIRE(results.size() == plan.runs.size(),
               "result count does not match the plan's run count");
  struct PointAccumulators {
    util::Accumulator adopted;
    util::Accumulator affected;
    util::Accumulator no_route;
    util::Accumulator alarms;
    util::Accumulator false_alarms;
    util::Accumulator cutoff;
    obs::MetricsRegistry metrics;
    std::size_t stuck = 0;
  };
  std::vector<PointAccumulators> accumulators(plan.attacker_fractions.size());
  // add() in plan order: the reduction is bit-identical to the historical
  // serial loop no matter what order the runs completed in.
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    PointAccumulators& acc = accumulators[plan.runs[i].point];
    const RunResult& run = results[i];
    acc.adopted.add(run.adopted_false_fraction());
    acc.affected.add(run.affected_fraction());
    acc.no_route.add(run.no_route_fraction());
    acc.alarms.add(static_cast<double>(run.alarms));
    acc.false_alarms.add(static_cast<double>(run.false_alarms));
    acc.cutoff.add(run.structural_cutoff);
    // Counters sum, histograms merge bucket-wise — both order-independent,
    // but this loop walks plan order anyway so gauges (last-writer-wins)
    // stay deterministic across --jobs too.
    acc.metrics.merge(run.metrics);
    if (run.first_alarm_latency >= 0.0) {
      acc.metrics.histogram("detector.first_alarm_latency", kAlarmLatencySpec)
          .add(run.first_alarm_latency);
    }
    if (run.eviction_latency >= 0.0) {
      acc.metrics.histogram("detector.eviction_latency", kAlarmLatencySpec)
          .add(run.eviction_latency);
    }
    if (run.false_route_stuck) ++acc.stuck;
  }
  std::vector<SweepPoint> points;
  points.reserve(plan.attacker_fractions.size());
  for (std::size_t p = 0; p < plan.attacker_fractions.size(); ++p) {
    PointAccumulators& acc = accumulators[p];
    SweepPoint point;
    point.attacker_fraction = plan.attacker_fractions[p];
    point.runs = acc.adopted.count();
    point.mean_adopted_false = acc.adopted.mean();
    point.stddev_adopted_false = acc.adopted.stddev();
    point.mean_affected = acc.affected.mean();
    point.mean_no_route = acc.no_route.mean();
    point.mean_alarms = acc.alarms.mean();
    point.mean_false_alarms = acc.false_alarms.mean();
    point.mean_structural_cutoff = acc.cutoff.mean();
    point.runs_false_route_stuck = acc.stuck;
    // Make sure both latency histograms exist even when no run produced a
    // sample — consumers can then rely on the names unconditionally.
    acc.metrics.histogram("detector.first_alarm_latency", kAlarmLatencySpec);
    acc.metrics.histogram("detector.eviction_latency", kAlarmLatencySpec);
    point.metrics = std::move(acc.metrics);
    points.push_back(std::move(point));
  }
  return points;
}

SweepPoint Experiment::run_point(double attacker_fraction, std::size_t origin_sets,
                                 std::size_t attacker_sets, util::Rng& rng,
                                 std::size_t jobs) const {
  return sweep({attacker_fraction}, origin_sets, attacker_sets, rng, jobs).front();
}

std::vector<SweepPoint> Experiment::sweep(const std::vector<double>& attacker_fractions,
                                          std::size_t origin_sets, std::size_t attacker_sets,
                                          util::Rng& rng, std::size_t jobs) const {
  const SweepPlan plan = plan_sweep(attacker_fractions, origin_sets, attacker_sets, rng);
  util::ThreadPool pool(jobs);
  const std::vector<RunResult> results = execute_plan(plan, pool);
  return reduce_plan(plan, results);
}

}  // namespace moas::core
