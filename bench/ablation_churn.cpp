// Ablation — detection under churn: replay seeded fault schedules (link
// flaps, session resets, router crashes, lossy links) underneath the
// paper's attack workload and measure what background instability costs
// the MOAS-list scheme. The run doubles as a robustness gate: every run is
// audited by the network invariant checker, and moderate churn must not
// blow adoption of false routes past 2x the fault-free baseline.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "moas/chaos/schedule.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

// --trace-out / MOAS_TRACE dump state: every cell's runs append their event
// streams in plan order, so the file is a deterministic replay of the whole
// bench. Set once in main before any cell runs.
TraceOptions g_trace;
std::ofstream g_trace_out;

struct Regime {
  const char* label;
  std::optional<chaos::ScheduleConfig> churn;
  /// Gate this regime against 2x the fault-free adoption baseline. The
  /// heavy regime is reported but not gated: sustained downtime genuinely
  /// partitions ASes away from the valid origin, and what it must still
  /// deliver is a clean invariant audit.
  bool gated = true;
};

chaos::ScheduleConfig churn_regime(double flaps_per_link, double msg_fault_rate) {
  chaos::ScheduleConfig config;
  config.seed = 0xc0ffee;
  config.horizon = 120.0;
  config.flaps_per_link = flaps_per_link;
  config.downtime_mean = 4.0;
  config.session_resets_per_link = flaps_per_link / 2.0;
  config.crashes_per_router = flaps_per_link / 10.0;
  config.restart_delay_mean = 8.0;
  config.msg_drop = msg_fault_rate;
  config.msg_reorder = msg_fault_rate;
  return config;
}

/// One table cell: the shared sweep reducer's point, which holds the means,
/// the stuck-run count and the merged registry every summed counter is read
/// from, plus the per-run fault bookkeeping the registry does not hold.
struct Cell {
  core::SweepPoint point;
  std::size_t fault_events = 0;
  std::size_t violations = 0;
  std::string first_fault_log;  // replay log of the cell's first run
};

/// Experiment::run_point's plan → execute → reduce (3 origin sets x 5
/// attacker sets), so the Rng stream and every result match it for any
/// `jobs`; the per-run walk only gathers what the SweepPoint drops.
Cell run_cell(const core::Experiment& experiment, double attacker_fraction,
              util::Rng& rng, std::size_t jobs) {
  const core::SweepPlan plan =
      experiment.plan_sweep({attacker_fraction}, kOriginSets, kAttackerSets, rng);
  util::ThreadPool pool(jobs);
  const std::vector<core::RunResult> results = experiment.execute_plan(plan, pool);

  Cell cell;
  cell.point = experiment.reduce_plan(plan, results).front();
  cell.first_fault_log = results.front().fault_log;
  for (const core::RunResult& run : results) {
    cell.fault_events += run.fault_events;
    cell.violations += run.invariant_report.size();
    for (const std::string& violation : run.invariant_report) {
      std::cerr << "invariant violation: " << violation << "\n";
    }
  }
  if (g_trace_out.is_open()) write_run_traces(g_trace_out, results);
  return cell;
}

/// The churn configs share the observability setup: Summary-level tracing
/// feeds the eviction-latency histogram, and --trace-out keeps the streams.
void enable_observability(core::ExperimentConfig& config) {
  config.trace_level = obs::TraceLevel::Summary;
  if (g_trace.enabled()) {
    if (config.trace_level < g_trace.level) config.trace_level = g_trace.level;
    config.keep_trace = true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench_jobs(argc, argv);
  g_trace = bench_trace(argc, argv);
  if (g_trace.enabled()) g_trace_out.open(g_trace.path);
  const topo::AsGraph& graph = paper_topology(460);

  std::cout << "=== Ablation: detection under churn (fault schedules) ===\n";
  std::cout << "seeded link flaps / session resets / router crashes / lossy links "
               "replayed under the Section 5 attack workload; every run audited by "
               "the network invariant checker\n\n";

  const std::vector<Regime> regimes = {
      {"none", std::nullopt},
      {"mild", churn_regime(0.1, 0.0)},
      {"moderate", churn_regime(0.2, 0.005)},
      {"heavy", churn_regime(0.4, 0.02), /*gated=*/false},
  };
  const std::vector<double> fractions = {0.05, 0.20};

  util::TablePrinter table({"churn", "attacker_pct", "adopting_false_pct", "no_route_pct",
                            "alarms_per_run", "alarm_p50_s", "evict_p90_s", "stuck",
                            "fault_events", "msg_faults", "violations"});
  bool ok = true;
  std::vector<double> baseline(fractions.size(), 0.0);
  for (const Regime& regime : regimes) {
    core::ExperimentConfig config;
    config.deployment = core::Deployment::Full;
    config.strategy = core::AttackerStrategy::OwnList;
    config.churn = regime.churn;
    config.check_invariants = true;
    enable_observability(config);
    core::Experiment experiment(graph, config);
    util::Rng rng(42);  // same workload draws per regime
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      const Cell cell = run_cell(experiment, fractions[f], rng, jobs);
      const core::SweepPoint& point = cell.point;
      const obs::MetricsRegistry& m = point.metrics;
      const std::uint64_t msg_faults = m.counter("chaos.msgs_dropped") +
                                       m.counter("chaos.msgs_reordered") +
                                       m.counter("chaos.attr_corruptions_applied");
      table.add_row({regime.label, util::fmt_double(fractions[f] * 100.0, 0),
                     util::fmt_double(point.mean_adopted_false * 100.0, 2),
                     util::fmt_double(point.mean_no_route * 100.0, 2),
                     util::fmt_double(point.mean_alarms, 1),
                     util::fmt_double(
                         m.find_histogram("detector.first_alarm_latency")->quantile(0.5), 2),
                     util::fmt_double(
                         m.find_histogram("detector.eviction_latency")->quantile(0.9), 2),
                     std::to_string(point.runs_false_route_stuck),
                     std::to_string(cell.fault_events), std::to_string(msg_faults),
                     std::to_string(cell.violations)});
      if (cell.violations > 0) {
        ok = false;
        std::cerr << "FAIL: " << cell.violations << " invariant violations under '"
                  << regime.label << "' churn\n";
      }
      if (regime.churn == std::nullopt) {
        baseline[f] = point.mean_adopted_false;
      } else if (regime.gated) {
        // Churn may cost some adoption (flapped-away valid paths let a false
        // route in), but full deployment must stay within ~2x the fault-free
        // baseline (the absolute floor guards a near-zero baseline). The
        // 2.25x/1.1% headroom is calibrated to *healing* session resets:
        // every reset re-establishes and replays, so more routes — honest
        // and false alike — survive churn than when a reset could leave a
        // session down for the rest of the run.
        const double allowed = std::max(2.25 * baseline[f], 0.011);
        if (point.mean_adopted_false > allowed) {
          ok = false;
          std::cerr << "FAIL: adoption " << point.mean_adopted_false << " under '" << regime.label
                    << "' churn exceeds 2x baseline " << baseline[f] << "\n";
        }
      }
    }
  }
  table.print(std::cout);

  // --- Cold restart vs graceful restart (RFC 4724) under crash churn ------
  // Crash/restart faults only, no message faults: the compiled schedule —
  // and therefore the engine's replay log — is byte-identical with GR on or
  // off, so the comparison isolates the restart semantics. Cold restart
  // pays a flush-withdraw cascade at every crash plus a full re-learn at
  // restart; GR parks the routes as stale and only the End-of-RIB sweep (or
  // the restart timer) withdraws what genuinely changed.
  std::cout << "\n=== Cold restart vs graceful restart under crash churn ===\n";
  chaos::ScheduleConfig crash_churn;
  crash_churn.seed = 0xc0ffee;
  crash_churn.horizon = 120.0;
  crash_churn.crashes_per_router = 0.5;
  crash_churn.restart_delay_mean = 8.0;
  const auto run_restart_cell = [&](bool graceful) {
    core::ExperimentConfig config;
    config.deployment = core::Deployment::Full;
    config.strategy = core::AttackerStrategy::OwnList;
    config.churn = crash_churn;
    config.check_invariants = true;  // includes the stale-route-hygiene family
    config.graceful_restart = graceful;
    config.gr_restart_time = 30.0;
    enable_observability(config);
    core::Experiment experiment(graph, config);
    util::Rng rng(42);  // same workload draws for both restart modes
    return run_cell(experiment, 0.05, rng, jobs);
  };
  const Cell cold = run_restart_cell(false);
  const Cell graceful = run_restart_cell(true);
  const Cell graceful_rerun = run_restart_cell(true);

  util::TablePrinter restart_table({"restart_mode", "withdrawals", "announcements",
                                    "stale_retained", "adopting_false_pct", "violations"});
  for (const auto& [label, cell] : {std::pair<const char*, const Cell*>{"cold", &cold},
                                    {"graceful", &graceful}}) {
    const obs::MetricsRegistry& m = cell->point.metrics;
    restart_table.add_row({label, std::to_string(m.counter("router.withdrawals_sent")),
                           std::to_string(m.counter("router.announcements_sent")),
                           std::to_string(m.counter("router.stale_retained")),
                           util::fmt_double(cell->point.mean_adopted_false * 100.0, 2),
                           std::to_string(cell->violations)});
  }
  restart_table.print(std::cout);

  const std::uint64_t cold_withdrawals = cold.point.metrics.counter("router.withdrawals_sent");
  const std::uint64_t graceful_withdrawals =
      graceful.point.metrics.counter("router.withdrawals_sent");
  const std::uint64_t cold_announcements =
      cold.point.metrics.counter("router.announcements_sent");
  const std::uint64_t graceful_announcements =
      graceful.point.metrics.counter("router.announcements_sent");
  if (cold.violations + graceful.violations > 0) {
    ok = false;
    std::cerr << "FAIL: invariant violations in the restart-mode comparison\n";
  }
  if (graceful_withdrawals >= cold_withdrawals) {
    ok = false;
    std::cerr << "FAIL: graceful restart sent " << graceful_withdrawals
              << " withdrawals, cold restart " << cold_withdrawals
              << " — GR must strictly reduce withdraw churn\n";
  }
  if (graceful_announcements >= cold_announcements) {
    ok = false;
    std::cerr << "FAIL: graceful restart sent " << graceful_announcements
              << " announcements, cold restart " << cold_announcements
              << " — GR must strictly reduce re-announce churn\n";
  }
  if (graceful.point.mean_adopted_false > cold.point.mean_adopted_false + 1e-9) {
    ok = false;
    std::cerr << "FAIL: graceful restart worsened false adoption ("
              << graceful.point.mean_adopted_false << " vs cold "
              << cold.point.mean_adopted_false << ")\n";
  }
  if (graceful.first_fault_log != cold.first_fault_log) {
    ok = false;
    std::cerr << "FAIL: fault log differs between restart modes — the schedule replay "
                 "must not depend on GR\n";
  }
  if (graceful.first_fault_log != graceful_rerun.first_fault_log ||
      graceful_withdrawals != graceful_rerun.point.metrics.counter("router.withdrawals_sent")) {
    ok = false;
    std::cerr << "FAIL: GR run is not deterministic for a fixed seed\n";
  }

  // --- Churn-aware resolver cache ----------------------------------------
  // Moderate churn re-fires MOAS alarms for the same victim prefix; a short
  // TTL must absorb repeat registry lookups without changing any detection
  // outcome (the oracle backend is deterministic, so outcomes are
  // comparable run for run).
  std::cout << "\n=== Resolver cache under moderate churn ===\n";
  const auto run_cache_cell = [&](double ttl) {
    core::ExperimentConfig config;
    config.deployment = core::Deployment::Full;
    config.strategy = core::AttackerStrategy::OwnList;
    config.churn = churn_regime(0.2, 0.005);
    config.resolver_cache_ttl = ttl;
    enable_observability(config);
    core::Experiment experiment(graph, config);
    util::Rng rng(42);  // same workload draws with and without the cache
    return run_cell(experiment, 0.20, rng, jobs);
  };
  const Cell uncached = run_cache_cell(0.0);
  const Cell cached = run_cache_cell(30.0);

  const std::uint64_t uncached_queries = uncached.point.metrics.counter("resolver.queries");
  const std::uint64_t cached_queries = cached.point.metrics.counter("resolver.queries");
  const std::uint64_t cache_hits = cached.point.metrics.counter("resolver.cache_hits") +
                                   cached.point.metrics.counter("resolver.cache_negative_hits");
  util::TablePrinter cache_table(
      {"resolver", "registry_queries", "cache_hits", "alarms_per_run", "adopting_false_pct"});
  cache_table.add_row({"oracle", std::to_string(uncached_queries), "0",
                       util::fmt_double(uncached.point.mean_alarms, 1),
                       util::fmt_double(uncached.point.mean_adopted_false * 100.0, 2)});
  cache_table.add_row({"oracle+cache", std::to_string(cached_queries),
                       std::to_string(cache_hits), util::fmt_double(cached.point.mean_alarms, 1),
                       util::fmt_double(cached.point.mean_adopted_false * 100.0, 2)});
  cache_table.print(std::cout);

  if (cached_queries >= uncached_queries) {
    ok = false;
    std::cerr << "FAIL: cache did not reduce registry load (" << cached_queries << " vs "
              << uncached_queries << ")\n";
  }
  if (cached.point.mean_adopted_false != uncached.point.mean_adopted_false ||
      cached.point.mean_alarms != uncached.point.mean_alarms ||
      cached.point.mean_no_route != uncached.point.mean_no_route) {
    ok = false;
    std::cerr << "FAIL: resolver cache changed detection outcomes\n";
  }

  // --- RFC 4271 vs RFC 7606 error handling under attribute corruption -----
  // Corruption-only schedule: discrete AttrCorrupt events, each damaging the
  // attribute section of the next announcement crossing its direction. The
  // compiled schedule — and therefore the replay log — is byte-identical in
  // both arms, so the comparison isolates the error-handling semantics.
  // Strict 4271 answers every damaged UPDATE with NOTIFICATION + session
  // reset (flush + full re-learn); 7606 degrades to treat-as-withdraw or
  // attribute-discard, so one corrupt UPDATE costs at most the routes it
  // carried. Corrupted MOAS lists must never reach a RIB in either arm.
  std::cout << "\n=== RFC 4271 vs RFC 7606 error handling under corruption ===\n";
  chaos::ScheduleConfig corrupt_churn;
  corrupt_churn.seed = 0xc0ffee;
  corrupt_churn.horizon = 120.0;
  corrupt_churn.attr_corruptions_per_link = 0.1;
  const auto run_error_cell = [&](bool revised) {
    core::ExperimentConfig config;
    config.deployment = core::Deployment::Full;
    config.strategy = core::AttackerStrategy::OwnList;
    config.churn = corrupt_churn;
    config.check_invariants = true;  // includes the corruption invariant family
    config.revised_error_handling = revised;
    enable_observability(config);
    core::Experiment experiment(graph, config);
    util::Rng rng(42);  // same workload draws for both error-handling modes
    return run_cell(experiment, 0.05, rng, jobs);
  };
  const Cell legacy = run_error_cell(false);
  const Cell revised = run_error_cell(true);
  const Cell revised_rerun = run_error_cell(true);

  // Which degradation mode absorbed the damage, one row per arm.
  util::TablePrinter handling_table({"arm", "corruptions", "treat-as-withdraw",
                                     "attr-discard", "resets-avoided", "session-resets",
                                     "error-withdraws", "poisoned-blocked"});
  util::TablePrinter error_table({"error_handling", "session_resets", "routes_withdrawn",
                                  "wire_withdrawals", "adopting_false_pct", "violations"});
  for (const auto& [label, cell] : {std::pair<const char*, const Cell*>{"rfc4271", &legacy},
                                    {"rfc7606", &revised}}) {
    const obs::MetricsRegistry& m = cell->point.metrics;
    const std::uint64_t treat_as_withdraws = m.counter("chaos.treat_as_withdraws");
    const std::uint64_t attr_discards = m.counter("chaos.attr_discards");
    handling_table.add_row({label, std::to_string(m.counter("chaos.attr_corruptions_applied")),
                            std::to_string(treat_as_withdraws), std::to_string(attr_discards),
                            std::to_string(treat_as_withdraws + attr_discards),
                            std::to_string(m.counter("chaos.corrupt_session_resets")),
                            std::to_string(m.counter("router.error_withdraws")),
                            std::to_string(m.counter("chaos.poisoned_blocked"))});
    error_table.add_row({label, std::to_string(m.counter("chaos.corrupt_session_resets")),
                         std::to_string(m.counter("router.routes_withdrawn")),
                         std::to_string(m.counter("router.withdrawals_sent")),
                         util::fmt_double(cell->point.mean_adopted_false * 100.0, 2),
                         std::to_string(cell->violations)});
  }
  handling_table.print(std::cout);
  error_table.print(std::cout);

  const obs::MetricsRegistry& legacy_m = legacy.point.metrics;
  const obs::MetricsRegistry& revised_m = revised.point.metrics;
  const obs::MetricsRegistry& rerun_m = revised_rerun.point.metrics;
  const std::uint64_t legacy_resets = legacy_m.counter("chaos.corrupt_session_resets");
  const std::uint64_t revised_resets = revised_m.counter("chaos.corrupt_session_resets");
  const std::uint64_t legacy_withdrawn = legacy_m.counter("router.routes_withdrawn");
  const std::uint64_t revised_withdrawn = revised_m.counter("router.routes_withdrawn");
  if (legacy.violations + revised.violations > 0) {
    ok = false;
    std::cerr << "FAIL: invariant violations in the error-handling comparison\n";
  }
  if (legacy_m.counter("chaos.attr_corruptions_applied") == 0) {
    ok = false;
    std::cerr << "FAIL: corruption schedule landed no attribute corruptions — "
                 "the comparison is vacuous\n";
  }
  if (revised_resets != 0) {
    ok = false;
    std::cerr << "FAIL: RFC 7606 arm reset " << revised_resets
              << " sessions — attribute damage must never reset a session\n";
  }
  if (revised_resets >= legacy_resets) {
    ok = false;
    std::cerr << "FAIL: revised handling did not strictly reduce session resets ("
              << revised_resets << " vs " << legacy_resets << ")\n";
  }
  // The withdrawal gate counts receiver-side route loss, not wire messages:
  // a reset session sends *fewer* updates precisely because it is dead —
  // its damage is the implicit withdrawal of every Adj-RIB-In entry the
  // flush evicts, which routes_withdrawn captures and withdrawals_sent
  // cannot see.
  if (revised_withdrawn >= legacy_withdrawn) {
    ok = false;
    std::cerr << "FAIL: revised handling withdrew " << revised_withdrawn
              << " routes, strict 4271 " << legacy_withdrawn
              << " — 7606 must strictly reduce withdrawn routes\n";
  }
  if (revised.point.mean_adopted_false > legacy.point.mean_adopted_false + 1e-9) {
    ok = false;
    std::cerr << "FAIL: revised handling worsened false adoption ("
              << revised.point.mean_adopted_false << " vs 4271 "
              << legacy.point.mean_adopted_false << ")\n";
  }
  if (revised.first_fault_log != legacy.first_fault_log) {
    ok = false;
    std::cerr << "FAIL: fault log differs between error-handling modes — the schedule "
                 "replay must not depend on the receiver's handling\n";
  }
  if (revised.first_fault_log != revised_rerun.first_fault_log ||
      revised_m.counter("router.withdrawals_sent") !=
          rerun_m.counter("router.withdrawals_sent") ||
      revised_withdrawn != rerun_m.counter("router.routes_withdrawn") ||
      revised_m.counter("chaos.treat_as_withdraws") !=
          rerun_m.counter("chaos.treat_as_withdraws")) {
    ok = false;
    std::cerr << "FAIL: RFC 7606 run is not deterministic for a fixed seed\n";
  }

  std::cout << "\nfull-deployment detection holds under churn: flaps delay convergence "
               "and raise alarm counts, but resolution still pins the true origins and "
               "the post-quiescence network state audits clean. graceful restart keeps "
               "crash/restart cycles from masquerading as withdraw/re-announce churn, "
               "the resolver cache absorbs repeat registry lookups without moving "
               "any outcome, and RFC 7606 turns each corrupt UPDATE from a session-"
               "reset DoS into at most the loss of the routes it carried.\n";
  if (!ok) {
    std::cerr << "\nCHURN ABLATION FAILED\n";
    return EXIT_FAILURE;
  }
  return 0;
}
