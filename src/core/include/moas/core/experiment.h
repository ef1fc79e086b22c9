// The paper's simulation harness (Section 5).
//
// One *run* places 1–2 valid origin ASes (random stubs) and M attacker ASes
// (random over all ASes) on a sampled topology, lets everyone announce, runs
// the network to quiescence and measures the fraction of non-attacker ASes
// whose best route for the victim prefix points at an attacker. A *point*
// averages several runs (the paper uses 15: 3 origin sets x 5 attacker
// sets); a *sweep* walks the attacker fraction across the x-axis of
// Figures 9–11.
//
// Sweeps are structured plan → execute → reduce. A serial planning pass
// (plan_sweep) draws every run's origins, attackers, and per-run seed,
// consuming the shared Rng stream in exactly the order the historical
// serial loop did. The independent runs then execute across a
// util::ThreadPool in any order (execute_plan), each seeded run fully
// self-contained. Finally reduce_plan adds per-run results into
// SweepPoints' util::Accumulators in plan order.
//
// Determinism contract: for a fixed topology, config, and seed, sweep()
// output is bit-identical for ANY job count — including jobs=1 versus the
// historical single-threaded loop — because all randomness is drawn
// serially up front and the floating-point reduction replays plan order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "moas/bgp/network.h"
#include "moas/chaos/registry_outage.h"
#include "moas/chaos/schedule.h"
#include "moas/core/async_resolver.h"
#include "moas/core/attacker.h"
#include "moas/core/detector.h"
#include "moas/core/resolver.h"
#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/topo/graph.h"
#include "moas/util/rng.h"

namespace moas::util {
class ThreadPool;
}

namespace moas::core {

enum class Deployment : std::uint8_t { None, Partial, Full };

const char* to_string(Deployment deployment);

enum class ResolverKind : std::uint8_t { Oracle, Dns, Irr, None };

/// Which propagation backend executes a run.
///
/// Event: the SSFnet-style timed simulation (bgp::Network over the event
/// queue) — message delays, MRAI pacing, churn, latency metrics.
/// Wave: the rank-ordered three-sweep engine (sim::WaveEngine) — the same
/// converged Loc-RIBs at O(edges) per prefix, no clock. Wave runs reject
/// every event-time knob loudly (see the Experiment constructor): MRAI must
/// be 0, prefer_established false, and churn / async resolution / graceful
/// restart / revised error handling / tracing / invariant audits off.
enum class Engine : std::uint8_t { Event, Wave };

const char* to_string(Engine engine);

/// Where attackers may be placed.
enum class AttackerPlacement : std::uint8_t { Anywhere, StubsOnly, TransitOnly };

struct ExperimentConfig {
  /// Propagation backend (see Engine). The default is the paper-faithful
  /// event simulation; Wave trades event-time fidelity for O(edges) runs.
  Engine engine = Engine::Event;

  Deployment deployment = Deployment::Full;
  double deployment_fraction = 0.5;  // MOAS-capable share under Partial

  std::size_t num_origins = 1;  // 1 or 2 valid origin ASes
  AttackerStrategy strategy = AttackerStrategy::OwnList;
  AttackerPlacement placement = AttackerPlacement::Anywhere;

  bgp::PolicyMode policy = bgp::PolicyMode::ShortestPath;
  /// Per-router MRAI (seconds); 0 disables. Defaults to the BGP-4 standard
  /// 30s, which (as in real BGP) suppresses the path-exploration storm on
  /// dense topologies without changing the converged outcome.
  double mrai = 30.0;
  double strip_fraction = 0.0;  // routers that drop communities on export

  /// Route-age preference (keep the established best on attribute-key
  /// ties). On by default — the stability step real BGP implementations
  /// apply — but it makes the event engine's converged tie winners depend
  /// on message timing. The wave engine is timeless and REQUIREs this off;
  /// turn it off on the event engine too when differentially comparing the
  /// two (DESIGN.md §10).
  bool prefer_established = true;

  ResolverKind resolver = ResolverKind::Oracle;
  double dns_unavailability = 0.0;  // when resolver == Dns
  double dns_forgery = 0.0;
  double irr_staleness = 0.0;  // when resolver == Irr; a stale record is missing

  /// Wrap the resolver in a CachingResolver with this TTL (seconds); 0
  /// disables. Under churn the same prefix alarms repeatedly, and without a
  /// cache every alarm is a fresh registry lookup.
  double resolver_cache_ttl = 0.0;

  /// Asynchronous fault-tolerant resolution. When set, conflict
  /// investigation goes through a clock-driven AsyncResolver (timeouts,
  /// retry/backoff, circuit breaker, fallback chain, stale-cache) built
  /// around the configured backend, and detectors run the degraded-mode
  /// alarm lifecycle (Pending alarms that later Resolve or Expire) instead
  /// of blocking on the synchronous resolver. The async seed is mixed with
  /// the run seed, so one run seed reproduces the latency draws too.
  std::optional<AsyncResolver::Config> async_resolution;
  /// Add an IRR source (knobbed by irr_staleness) behind
  /// the primary backend in the fallback chain. Only with async_resolution.
  bool async_fallback_irr = false;
  /// Seeded registry outage windows and latency spikes replayed against the
  /// async sources. The seed is XOR-mixed with the run seed, like churn.
  /// Only meaningful with async_resolution.
  std::optional<chaos::RegistryOutageConfig> registry_outage;

  /// RFC 4724 graceful restart, negotiated network-wide. Router crashes
  /// then leave peers' learned routes in use (marked stale) until the
  /// restart timer or the restarted router's End-of-RIB — instead of the
  /// cold flush + withdraw cascade that makes a crash look like churn.
  bool graceful_restart = false;
  double gr_restart_time = 60.0;

  /// RFC 7606 revised UPDATE error handling, network-wide. Attribute-level
  /// damage degrades to treat-as-withdraw or attribute-discard instead of a
  /// NOTIFICATION + session reset, so one corrupt UPDATE costs at most the
  /// routes it carried — not the whole session's worth of detector evidence.
  bool revised_error_handling = false;

  /// Off (default): valid and false announcements race from a cold start —
  /// one SSFnet scenario per run, which is what reproduces the paper's
  /// numbers (cut-off ASes never hear the valid route and adopt the false
  /// one). On: the valid routes converge first and the attack hits a
  /// steady-state network — an ablation showing that pre-seeded reference
  /// lists make full deployment essentially immune.
  bool converge_before_attack = false;

  std::size_t max_events = 50'000'000;

  /// Background churn: a seeded fault schedule (link flaps, session resets,
  /// router crashes, message-level faults) replayed while the run's
  /// announcements and attacks play out. The schedule seed is XOR-mixed
  /// with the run seed, so one run seed reproduces workload and faults
  /// alike. nullopt = the classic fault-free run.
  std::optional<chaos::ScheduleConfig> churn;

  /// Audit the NetworkInvariantChecker (plus the MOAS-layer custom checks)
  /// at final quiescence; violations are reported in RunResult.
  bool check_invariants = false;

  /// Observability: attach a per-run trace bus recording at this level.
  /// Summary is enough for the alarm-latency metrics (route changes, alarms,
  /// faults); Full adds per-UPDATE send/receive. Off attaches nothing.
  obs::TraceLevel trace_level = obs::TraceLevel::Off;
  /// Keep the raw event stream in RunResult::trace after the run's own
  /// latency computation. Off by default — a Full-level stream is large.
  bool keep_trace = false;

  /// Snapshot every router's final Loc-RIB into RunResult::final_ribs.
  /// Off by default (it is O(ASes) memory per run); the event-vs-wave
  /// differential gate turns it on to compare converged routing tables
  /// entry for entry.
  bool keep_final_ribs = false;
};

/// Bucket layout of the per-point alarm-latency histograms: 0.5 s buckets
/// up to 30 s (one MRAI interval), explicit overflow beyond. Shared by
/// every producer so point registries merge without spec conflicts.
inline constexpr obs::HistogramSpec kAlarmLatencySpec{0.0, 0.5, 60};

/// One converged Loc-RIB entry, labeled with the AS holding it (only with
/// ExperimentConfig::keep_final_ribs). Full-route equality — path, origin
/// code, LOCAL_PREF, MED, communities, learned-from neighbor.
struct FinalRoute {
  bgp::Asn asn = bgp::kNoAs;
  bgp::RibEntry entry;

  friend bool operator==(const FinalRoute&, const FinalRoute&) = default;
};

struct RunResult {
  std::size_t total_ases = 0;
  std::size_t attackers = 0;
  std::size_t population = 0;  // non-attacker ASes (the paper's "remaining")

  std::size_t adopted_false = 0;  // best route origin is an attacker
  std::size_t adopted_valid = 0;  // best route origin is a valid origin
  std::size_t no_route = 0;       // no route for the victim prefix at all

  std::size_t alarms = 0;
  std::size_t false_alarms = 0;  // alarms not implicating any attacker
  /// Alarm lifecycle at quiescence (zero-lost-alarms contract: pending must
  /// be 0 — every alarm either resolved or expired explicitly). Alarms that
  /// needed no investigation settle as resolved on the spot.
  std::size_t alarms_pending = 0;
  std::size_t alarms_resolved = 0;
  std::size_t alarms_expired = 0;
  bool quiesced = true;

  /// Copies of five registry counters, kept only because the benchmark
  /// harness (perfbench/src/sweep.cpp) reads them by field; ROADMAP item 6
  /// turns them into reads of `metrics`. Every other counter is read from
  /// `metrics` by name.
  std::size_t rejections = 0;          // detector.rejections
  std::uint64_t messages = 0;          // network.messages_sent
  std::uint64_t withdrawals = 0;       // router.withdrawals_sent
  std::uint64_t announcements = 0;     // router.announcements_sent
  std::uint64_t resolver_queries = 0;  // resolver.queries

  /// Graph-theoretic lower bound on residual damage under full detection:
  /// the fraction of non-attackers the attacker set cuts off from every
  /// valid origin.
  double structural_cutoff = 0.0;

  bgp::AsnSet origin_set;
  bgp::AsnSet attacker_set;

  /// Churn bookkeeping (zero / empty without ExperimentConfig::churn).
  std::size_t fault_events = 0;  // discrete faults replayed
  std::string fault_log;         // byte-identical for equal seeds
  /// Compiled registry-outage windows (empty without registry_outage);
  /// byte-identical for equal seeds — bench arms compare these to prove two
  /// configurations saw the same fault schedule.
  std::string outage_log;
  /// Violations found when ExperimentConfig::check_invariants is set.
  std::vector<std::string> invariant_report;

  /// Alarm-latency instrumentation (simulated seconds; -1 = not applicable).
  /// `attack_injected_at` is the earliest scheduled false origination on the
  /// run's clock; `first_alarm_latency` measures from there to the first
  /// alarm implicating an attacker; `eviction_latency` to the moment the
  /// last non-attacker router dropped its attacker-origin best route (0 when
  /// no non-attacker ever adopted one; -1 with `false_route_stuck` set when
  /// one still held it at quiescence). Eviction needs trace_level >= Summary
  /// — it is computed from the RoutePreferred/RouteDepreferred stream.
  double attack_injected_at = -1.0;
  double first_alarm_latency = -1.0;
  double eviction_latency = -1.0;
  bool false_route_stuck = false;

  /// Wall-clock seconds spent inside the engine's propagation phase alone —
  /// the event-queue drains (run_event) or the wave sweeps (run_wave) —
  /// excluding scenario setup and scoring. Real time, not simulated: it is
  /// NOT in the metrics registry and never enters a determinism comparison;
  /// micro_wave_vs_event reads it for the per-prefix speedup gate.
  double propagation_seconds = 0.0;

  /// Per-run metrics snapshot: router.*/network.*/sim.* (always), chaos.*
  /// (with churn), detector.*/resolver.* (with deployment). The one copy of
  /// every run counter outside the components that count it: the fields
  /// above are outcomes, alarm tallies, logs and latencies the registry
  /// does not hold, plus the five counter copies noted there.
  obs::MetricsRegistry metrics;
  /// The raw event stream (only with ExperimentConfig::keep_trace).
  std::vector<obs::TraceEvent> trace;
  /// Every router's converged Loc-RIB, sorted by (asn, prefix) — only with
  /// ExperimentConfig::keep_final_ribs. Both engines populate it the same
  /// way, so the differential gate compares the vectors with ==.
  std::vector<FinalRoute> final_ribs;

  double adopted_false_fraction() const {
    return population == 0 ? 0.0
                           : static_cast<double>(adopted_false) /
                                 static_cast<double>(population);
  }
  double no_route_fraction() const {
    return population == 0 ? 0.0
                           : static_cast<double>(no_route) / static_cast<double>(population);
  }
  /// The paper's "affected" ASes: traffic for the victim prefix is either
  /// hijacked (false best route) or lost (no route at all — a capable AS
  /// that banned the false origin but was cut off from the valid one).
  double affected_fraction() const {
    return adopted_false_fraction() + no_route_fraction();
  }
};

struct SweepPoint {
  double attacker_fraction = 0.0;  // requested share of ASes
  std::size_t runs = 0;
  double mean_adopted_false = 0.0;  // fraction of non-attacker ASes, averaged
  double stddev_adopted_false = 0.0;
  double mean_affected = 0.0;  // adopted-false + no-route (the paper's metric)
  double mean_no_route = 0.0;
  double mean_alarms = 0.0;
  double mean_false_alarms = 0.0;
  double mean_structural_cutoff = 0.0;
  /// Runs whose false route was still installed somewhere at quiescence
  /// (excluded from the eviction-latency histogram).
  std::size_t runs_false_route_stuck = 0;
  /// Per-run registries merged in plan order, plus the point's latency
  /// histograms: "detector.first_alarm_latency" (injection → first
  /// attacker-implicating alarm) and "detector.eviction_latency"
  /// (injection → network-wide false-route eviction), both kAlarmLatencySpec.
  obs::MetricsRegistry metrics;
};

/// One planned simulation: placements and seed drawn up front by the
/// serial planning pass, so the run itself touches no shared Rng state.
struct PlannedRun {
  std::size_t point = 0;  // index into SweepPlan::attacker_fractions
  bgp::AsnSet origins;
  bgp::AsnSet attackers;
  std::uint64_t seed = 0;
};

/// A fully-drawn sweep. `runs` is in plan order — point-major, then
/// origin-set, then attacker-set — which is both the order the shared Rng
/// stream was consumed in and the order the reduction replays.
struct SweepPlan {
  std::vector<double> attacker_fractions;
  std::size_t origin_sets = 0;
  std::size_t attacker_sets = 0;
  std::vector<PlannedRun> runs;

  std::size_t runs_per_point() const { return origin_sets * attacker_sets; }
};

class Experiment {
 public:
  /// `graph` must stay alive as long as the experiment. It must be
  /// connected and contain at least one stub.
  Experiment(const topo::AsGraph& graph, ExperimentConfig config);

  const ExperimentConfig& config() const { return config_; }

  /// Draw random origins/attackers and run one simulation.
  RunResult run_once(std::size_t num_attackers, util::Rng& rng) const;

  /// Run with explicit placements (tests / demos).
  RunResult run_with(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                     std::uint64_t seed) const;

  /// One figure data point: `origin_sets` origin draws x `attacker_sets`
  /// attacker draws (the paper's 3 x 5 = 15 runs). Both budgets must be
  /// >= 1. `jobs` workers execute the runs (0 resolves via
  /// util::ThreadPool::default_jobs()); output is identical for any value.
  SweepPoint run_point(double attacker_fraction, std::size_t origin_sets,
                       std::size_t attacker_sets, util::Rng& rng,
                       std::size_t jobs = 1) const;

  /// A full curve: plan_sweep → execute_plan → reduce_plan. Bit-identical
  /// output for any `jobs` (see the determinism contract above).
  std::vector<SweepPoint> sweep(const std::vector<double>& attacker_fractions,
                                std::size_t origin_sets, std::size_t attacker_sets,
                                util::Rng& rng, std::size_t jobs = 1) const;

  /// Serial planning pass: draws every run's origins, attackers and seed,
  /// consuming `rng` in exactly the order the serial sweep always did.
  /// Rejects empty run budgets (origin_sets or attacker_sets == 0) and
  /// out-of-range attacker fractions up front.
  SweepPlan plan_sweep(const std::vector<double>& attacker_fractions,
                       std::size_t origin_sets, std::size_t attacker_sets,
                       util::Rng& rng) const;

  /// Execute a plan's independent runs across `pool`, in any completion
  /// order; the result vector is indexed in plan order. Callers may share
  /// one pool across several experiments' plans (see bench_util).
  std::vector<RunResult> execute_plan(const SweepPlan& plan,
                                      util::ThreadPool& pool) const;

  /// Deterministic reduction: merge per-run results into one SweepPoint
  /// per attacker fraction, replaying plan order.
  std::vector<SweepPoint> reduce_plan(const SweepPlan& plan,
                                      const std::vector<RunResult>& results) const;

  /// Random distinct origin stubs per config().num_origins.
  bgp::AsnSet draw_origins(util::Rng& rng) const;

  /// Random attacker set avoiding `origins`, honoring placement.
  bgp::AsnSet draw_attackers(std::size_t count, const bgp::AsnSet& origins,
                             util::Rng& rng) const;

 private:
  /// The event-queue backend (the historical run_with body).
  RunResult run_event(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                      std::uint64_t seed) const;
  /// The rank-ordered wave backend. Both backends play the same scenario
  /// (src/core/scenario.h) with the same draws, so a PlannedRun resolves to
  /// the same capable set under either engine.
  RunResult run_wave(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                     std::uint64_t seed) const;

  const topo::AsGraph* graph_;
  ExperimentConfig config_;
};

}  // namespace moas::core
