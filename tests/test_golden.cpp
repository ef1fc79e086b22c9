// Paper-number golden gate. Every case renders a fixed, seeded scenario
// matrix as text and compares it byte for byte against a checked-in
// expected file under tests/golden/:
//   - Experiment sweeps under both engines (mrai 0, prefer_established
//     off), crossed over deployment × resolver × attacker strategy ×
//     origin count × converge_before_attack. Each run prints every
//     deterministic RunResult field (false_alarms pinned explicitly), its
//     churn, error-handling and cache counters read from its registry, and
//     a digest of its converged Loc-RIBs; each point prints its SweepPoint
//     summary at %.17g plus its merged metrics manifest.
//   - An event sweep under churn (flaps, resets, crashes, lossy links,
//     attribute corruption; graceful restart, resolver cache, invariant
//     audit), once with strict RFC 4271 and once with RFC 7606 error
//     handling: every run, its fault log and invariant report, and the
//     point summary.
//   - run_multi_prefix on 630 ASes × 16 prefixes under Full and Partial.
//   - The default-calibrated Section 3 trace through MoasObserver: every
//     TraceSummary field, the Fig 4 daily counts and the Fig 5 duration
//     histogram.
//   - A 60-day stream replay with churn, planned attacks and a FaultyFeed:
//     the alarm log, the metrics manifest, the false-alarm count and every
//     AttackOutcome.
// The determinism and event-vs-wave tests compare the program with
// itself; these files pin it against recorded numbers, so a shift in draw
// order, a tie-break, an interning detail or alarm classification fails
// here even when it moves both engines alike.
//
// Regenerate the expected files only with tests/golden/regen.sh (it sets
// MOAS_GOLDEN_UPDATE=1), so every drift lands as a reviewed diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "moas/core/experiment.h"
#include "moas/core/multi_prefix.h"
#include "moas/measure/observer.h"
#include "moas/measure/trace_gen.h"
#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"
#include "moas/util/thread_pool.h"

namespace moas::core {
namespace {

const topo::AsGraph& parent_internet() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(2002);
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
  static std::map<std::size_t, topo::AsGraph> cache;
  auto it = cache.find(size);
  if (it == cache.end()) {
    util::Rng rng(size * 31 + 3);
    it = cache.emplace(size, topo::sample_to_size(parent_internet(), size, rng, 0.10)).first;
  }
  return it->second;
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string asns(const bgp::AsnSet& set) {
  std::string out = "{";
  for (bgp::Asn asn : set) {
    if (out.size() > 1) out += ',';
    out += std::to_string(asn);
  }
  return out + "}";
}

/// FNV-1a over every converged Loc-RIB entry: holder, full route text,
/// LOCAL_PREF, MED, origin code and learned-from neighbor.
std::uint64_t rib_digest(const std::vector<FinalRoute>& ribs) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const FinalRoute& r : ribs) {
    const bgp::PathAttributes& a = r.entry.route.attrs;
    const std::string line =
        std::to_string(r.asn) + ' ' + r.entry.route.to_string() + ' ' +
        std::to_string(a.local_pref) + ' ' + std::to_string(a.med) + ' ' +
        std::to_string(static_cast<int>(a.origin_code)) + ' ' +
        std::to_string(r.entry.learned_from) + '\n';
    for (unsigned char c : line) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void print_run(std::ostream& os, const PlannedRun& plan, const RunResult& r) {
  const obs::MetricsRegistry& m = r.metrics;
  os << "  run point=" << plan.point << " seed=" << plan.seed
     << " origins=" << asns(r.origin_set) << " attackers=" << asns(r.attacker_set) << '\n'
     << "    total_ases=" << r.total_ases << " attackers=" << r.attackers
     << " population=" << r.population << " adopted_false=" << r.adopted_false
     << " adopted_valid=" << r.adopted_valid << " no_route=" << r.no_route << '\n'
     << "    alarms=" << r.alarms << " false_alarms=" << r.false_alarms
     << " pending=" << r.alarms_pending << " resolved=" << r.alarms_resolved
     << " expired=" << r.alarms_expired << " rejections=" << r.rejections << '\n'
     << "    messages=" << r.messages << " quiesced=" << r.quiesced
     << " withdrawals=" << r.withdrawals << " announcements=" << r.announcements
     << " stale_retained=" << m.counter("router.stale_retained")
     << " stale_swept=" << m.counter("router.stale_swept")
     << " routes_withdrawn=" << m.counter("router.routes_withdrawn")
     << " error_withdraws=" << m.counter("router.error_withdraws") << '\n'
     << "    attr_corruptions=" << m.counter("chaos.attr_corruptions_applied")
     << " corrupt_session_resets=" << m.counter("chaos.corrupt_session_resets")
     << " treat_as_withdraws=" << m.counter("chaos.treat_as_withdraws")
     << " attr_discards=" << m.counter("chaos.attr_discards")
     << " poisoned_blocked=" << m.counter("chaos.poisoned_blocked")
     << " fault_events=" << r.fault_events << " message_faults="
     << m.counter("chaos.msgs_dropped") + m.counter("chaos.msgs_reordered") +
            m.counter("chaos.attr_corruptions_applied")
     << '\n'
     << "    resolver_queries=" << r.resolver_queries << " resolver_cache_hits="
     << m.counter("resolver.cache_hits") + m.counter("resolver.cache_negative_hits")
     << " structural_cutoff=" << num(r.structural_cutoff) << '\n'
     << "    attack_injected_at=" << num(r.attack_injected_at)
     << " first_alarm_latency=" << num(r.first_alarm_latency)
     << " eviction_latency=" << num(r.eviction_latency)
     << " false_route_stuck=" << r.false_route_stuck << '\n'
     << "    final_ribs=" << r.final_ribs.size() << " digest=" << rib_digest(r.final_ribs)
     << '\n';
}

void print_point(std::ostream& os, const SweepPoint& p) {
  os << "  point attacker_fraction=" << num(p.attacker_fraction) << " runs=" << p.runs
     << '\n'
     << "    mean_adopted_false=" << num(p.mean_adopted_false)
     << " stddev_adopted_false=" << num(p.stddev_adopted_false) << '\n'
     << "    mean_affected=" << num(p.mean_affected)
     << " mean_no_route=" << num(p.mean_no_route) << '\n'
     << "    mean_alarms=" << num(p.mean_alarms)
     << " mean_false_alarms=" << num(p.mean_false_alarms) << '\n'
     << "    mean_structural_cutoff=" << num(p.mean_structural_cutoff)
     << " runs_false_route_stuck=" << p.runs_false_route_stuck << '\n'
     << "    metrics=" << p.metrics.to_json() << '\n';
}

void print_multi_prefix(std::ostream& os, const MultiPrefixResult& r) {
  // Every field but propagation_seconds, which is wall-clock time.
  os << "  prefixes=" << r.prefixes << " attacked=" << r.attacked << " blocks=" << r.blocks
     << '\n'
     << "  alarms=" << r.alarms << " false_alarms=" << r.false_alarms << '\n'
     << "  adopted_false=" << r.adopted_false << " adopted_valid=" << r.adopted_valid
     << " no_route=" << r.no_route
     << " adopted_false_fraction=" << num(r.adopted_false_fraction()) << '\n'
     << "  routes_installed=" << r.routes_installed << " rib_entries=" << r.rib_entries
     << '\n'
     << "  rib_bytes=" << r.rib_bytes << " baseline_rib_bytes=" << r.baseline_rib_bytes
     << '\n';
}

/// Compare `actual` with tests/golden/<name>.txt, or rewrite the file when
/// MOAS_GOLDEN_UPDATE is set. A mismatch reports the first differing line.
void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(MOAS_GOLDEN_DIR) + "/" + name + ".txt";
  const char* update = std::getenv("MOAS_GOLDEN_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing expected file " << path << " (run tests/golden/regen.sh)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) return;
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (std::size_t line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, el));
    const bool more_a = static_cast<bool>(std::getline(a, al));
    if (!more_e && !more_a) break;
    if (more_e != more_a || el != al) {
      FAIL() << path << " differs at line " << line << "\n  expected: "
             << (more_e ? el : "<end of file>") << "\n  actual:   "
             << (more_a ? al : "<end of output>");
    }
  }
  FAIL() << path << " differs";
}

using SweepCase = std::tuple<Engine, Deployment, ResolverKind>;

const char* resolver_name(ResolverKind kind) {
  switch (kind) {
    case ResolverKind::Oracle: return "oracle";
    case ResolverKind::Dns: return "dns";
    case ResolverKind::Irr: return "irr";
    case ResolverKind::None: return "none";
  }
  return "?";
}

const char* deployment_name(Deployment deployment) {
  switch (deployment) {
    case Deployment::Full: return "full";
    case Deployment::Partial: return "partial";
    case Deployment::None: return "none";
  }
  return "?";
}

std::string case_name(const SweepCase& c) {
  return std::string(to_string(std::get<0>(c))) + "_" + deployment_name(std::get<1>(c)) +
         "_" + resolver_name(std::get<2>(c));
}

constexpr std::size_t kMaxEvents = 2'000'000;
constexpr std::size_t kSweepTopologySize = 120;

class GoldenSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GoldenSweep, MatchesExpected) {
  const auto [engine, deployment, resolver] = GetParam();
  const topo::AsGraph& graph = sampled(kSweepTopologySize);
  util::ThreadPool pool(1);
  std::ostringstream os;
  std::uint64_t sub_case = 0;
  for (AttackerStrategy strategy :
       {AttackerStrategy::OwnList, AttackerStrategy::SubPrefixHijack}) {
    for (std::size_t num_origins : {std::size_t{1}, std::size_t{2}}) {
      for (bool converge : {false, true}) {
        ExperimentConfig config;
        config.engine = engine;
        config.mrai = 0.0;
        config.prefer_established = false;
        config.deployment = deployment;
        if (deployment == Deployment::Partial) {
          config.deployment_fraction = 0.5;
          config.strip_fraction = 0.1;
        }
        config.resolver = resolver;
        if (resolver == ResolverKind::Dns) {
          config.dns_unavailability = 0.1;
          config.dns_forgery = 0.1;
        } else if (resolver == ResolverKind::Irr) {
          config.irr_staleness = 0.2;
        }
        config.strategy = strategy;
        config.num_origins = num_origins;
        config.converge_before_attack = converge;
        config.keep_final_ribs = true;
        // MRAI 0 lets event runs on larger samples explore paths for tens of
        // millions of events; the cap turns such a storm into a quick failure.
        config.max_events = kMaxEvents;
        const Experiment experiment(graph, config);
        // The plan seed depends only on the sub-case, so every engine,
        // deployment and resolver replays the same placements.
        util::Rng rng(9000 + sub_case++);
        const SweepPlan plan = experiment.plan_sweep({0.02, 0.1}, 2, 2, rng);
        os << "sweep strategy=" << to_string(strategy) << " origins=" << num_origins
           << " converge_before_attack=" << converge << '\n';
        const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
        for (std::size_t i = 0; i < plan.runs.size(); ++i) {
          print_run(os, plan.runs[i], results[i]);
        }
        for (const SweepPoint& point : experiment.reduce_plan(plan, results)) {
          print_point(os, point);
        }
      }
    }
  }
  check_golden("sweep_" + case_name(GetParam()), os.str());
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenSweep,
    ::testing::Combine(::testing::Values(Engine::Event, Engine::Wave),
                       ::testing::Values(Deployment::Full, Deployment::Partial,
                                         Deployment::None),
                       ::testing::Values(ResolverKind::Oracle, ResolverKind::Dns,
                                         ResolverKind::Irr)),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return case_name(info.param); });

void check_multi_prefix(Deployment deployment) {
  std::ostringstream os;
  for (AttackerStrategy strategy :
       {AttackerStrategy::OwnList, AttackerStrategy::SubPrefixHijack}) {
    MultiPrefixConfig config;
    config.num_prefixes = 16;
    config.block_size = 4;
    config.origins_per_prefix = 2;
    config.attacked_fraction = 0.75;
    config.strategy = strategy;
    config.deployment = deployment;
    config.deployment_fraction = 0.5;
    config.seed = 0x90de;
    os << "multi_prefix strategy=" << to_string(strategy) << '\n';
    print_multi_prefix(os, run_multi_prefix(sampled(630), config));
  }
  check_golden(std::string("multi_prefix_") + deployment_name(deployment), os.str());
}

TEST(GoldenMultiPrefix, FullDeploymentMatchesExpected) { check_multi_prefix(Deployment::Full); }

TEST(GoldenMultiPrefix, PartialDeploymentMatchesExpected) {
  check_multi_prefix(Deployment::Partial);
}

void check_churn(bool revised_error_handling) {
  // ablation_churn's moderate regime plus its corruption arm, in one
  // schedule: flaps, session resets, crashes, lossy links and scheduled
  // attribute corruption, with graceful restart and a resolver cache on.
  chaos::ScheduleConfig churn;
  churn.seed = 0xc0ffee;
  churn.horizon = 120.0;
  churn.flaps_per_link = 0.2;
  churn.downtime_mean = 4.0;
  churn.session_resets_per_link = 0.1;
  churn.crashes_per_router = 0.05;
  churn.restart_delay_mean = 8.0;
  churn.msg_drop = 0.005;
  churn.msg_reorder = 0.005;
  churn.attr_corruptions_per_link = 0.1;

  ExperimentConfig config;
  config.churn = churn;
  config.graceful_restart = true;
  config.gr_restart_time = 30.0;
  config.revised_error_handling = revised_error_handling;
  config.resolver_cache_ttl = 30.0;
  config.check_invariants = true;
  config.trace_level = obs::TraceLevel::Summary;
  config.keep_final_ribs = true;
  config.max_events = kMaxEvents;
  const Experiment experiment(sampled(kSweepTopologySize), config);
  util::Rng rng(42);
  const SweepPlan plan = experiment.plan_sweep({0.05}, 2, 2, rng);
  util::ThreadPool pool(1);
  const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
  std::ostringstream os;
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    print_run(os, plan.runs[i], results[i]);
    os << "    fault_log\n" << results[i].fault_log << "    invariant_report "
       << results[i].invariant_report.size() << '\n';
    for (const std::string& violation : results[i].invariant_report) {
      os << "      " << violation << '\n';
    }
  }
  for (const SweepPoint& point : experiment.reduce_plan(plan, results)) {
    print_point(os, point);
  }
  check_golden(revised_error_handling ? "churn_revised" : "churn_strict", os.str());
}

TEST(GoldenChurn, StrictErrorHandlingMatchesExpected) { check_churn(false); }

TEST(GoldenChurn, RevisedErrorHandlingMatchesExpected) { check_churn(true); }

TEST(GoldenTrace, MatchesExpected) {
  // The trace sec3_moas_stats, fig4_moas_timeseries and
  // fig5_duration_histogram measure.
  util::Rng rng(1997);
  const measure::SyntheticTrace trace = measure::generate_trace(measure::TraceConfig{}, rng);
  measure::MoasObserver observer;
  observer.ingest_all(trace);
  const measure::TraceSummary s = observer.summarize();
  std::ostringstream os;
  os << "summary total_cases=" << s.total_cases << " one_day_cases=" << s.one_day_cases
     << " one_day_fraction=" << num(s.one_day_fraction)
     << " one_day_spike_share=" << num(s.one_day_spike_share)
     << " spike_day=" << s.spike_day << '\n'
     << "  two_origin_fraction=" << num(s.two_origin_fraction)
     << " three_origin_fraction=" << num(s.three_origin_fraction) << '\n'
     << "  max_daily_count=" << s.max_daily_count
     << " max_daily_count_day=" << s.max_daily_count_day
     << " median_daily_1998=" << num(s.median_daily_1998)
     << " median_daily_2001=" << num(s.median_daily_2001) << '\n';
  const std::vector<std::size_t>& daily = observer.daily_counts();
  os << "daily_counts days=" << daily.size() << '\n';
  for (std::size_t day = 0; day < daily.size(); ++day) {
    os << "  " << day << ' ' << daily[day] << '\n';
  }
  const util::Histogram durations = observer.duration_histogram();
  os << "duration_histogram total=" << durations.total() << '\n';
  for (const auto& [days, cases] : durations.bins()) {
    os << "  " << days << ' ' << cases << '\n';
  }
  check_golden("trace_sec3", os.str());
}

TEST(GoldenStream, MatchesExpected) {
  // The faulted scenario of stream_replay --smoke, on one worker.
  measure::TraceConfig trace_config;
  trace_config.days = 60;
  trace_config.active_start = 40;
  trace_config.active_end = 50;
  trace_config.faults_per_day = 5.0;
  trace_config.include_spike_1998 = false;
  trace_config.include_spike_2001 = false;
  util::Rng rng(trace_config.days);
  const measure::SyntheticTrace trace = measure::generate_trace(trace_config, rng);

  stream::ChurnConfig churn_config;
  churn_config.seed = 11;
  churn_config.share = 0.1;
  churn_config.min_active_days = 30;
  const std::vector<stream::OriginOverride> churn = stream::plan_churn(trace, churn_config);
  stream::AttackConfig attack_config;
  attack_config.seed = 13;
  attack_config.attacks = 4;
  const std::vector<stream::AttackPlan> plans =
      stream::plan_attacks(trace, attack_config, churn);
  std::vector<stream::OriginOverride> overrides = churn;
  for (const stream::AttackPlan& p : plans) overrides.push_back(p.inject);

  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 97;
  fault_config.horizon_days = trace.days;
  fault_config.gaps = 2.0;
  fault_config.gap_mean_days = 2.0;
  fault_config.duplicate_prob = 0.01;
  fault_config.reorder_prob = 0.02;
  fault_config.reorder_max_skew = 8;
  fault_config.garble_prob = 0.005;
  const chaos::FeedFaultSchedule faults = chaos::compile_feed_faults(fault_config);

  stream::StreamConfig config;
  config.shards = 8;
  config.jobs = 1;
  config.flush_margin = 16;
  config.shard.alarm_retention = 512;
  config.shard.memory_budget_bytes = 128 * 1024;
  config.shard.evict_idle_days = 30;

  stream::TraceReplaySource source(trace, overrides);
  stream::FaultyFeed feed(source, faults);
  stream::StreamDetector detector(config);
  detector.run(feed);

  // A false alarm is one no planned attack explains: the churn stressor.
  const std::vector<core::MoasAlarm> alarms = detector.merged_alarms();
  std::size_t false_alarms = 0;
  for (const core::MoasAlarm& alarm : alarms) {
    const bool attack = std::any_of(plans.begin(), plans.end(), [&](const auto& p) {
      return p.inject.prefix == alarm.prefix &&
             alarm.offending_origins.contains(p.inject.add_origin);
    });
    if (!attack) ++false_alarms;
  }
  std::ostringstream os;
  os << "alarm_log\n" << detector.alarm_log_text() << "metrics\n"
     << detector.metrics().to_json() << '\n'
     << "alarms=" << alarms.size() << " false_alarms=" << false_alarms << '\n';
  for (const stream::AttackOutcome& o : stream::evaluate_attacks(plans, alarms, &faults)) {
    const stream::OriginOverride& inject = o.plan.inject;
    os << "attack prefix=" << inject.prefix.to_string() << " add_origin=" << inject.add_origin
       << " days=" << inject.first_day << ".." << inject.last_day
       << " injected_at=" << num(o.plan.injected_at) << '\n'
       << "  observable=" << o.observable << " alarmed=" << o.alarmed
       << " first_alarm_at=" << num(o.first_alarm_at)
       << " latency_days=" << num(o.latency_days)
       << " final_state=" << core::to_string(o.final_state)
       << " all_settled=" << o.all_settled << '\n';
  }
  check_golden("stream_faulted", os.str());
}

}  // namespace
}  // namespace moas::core
