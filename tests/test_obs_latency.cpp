// Experiment-level observability tests: the alarm-latency instrumentation
// (injection -> first alarm, injection -> network-wide eviction), the
// per-run metrics registry as the source of truth for RunResult's scalar
// counters, keep_trace, and the invariant that attaching an observer never
// changes what the experiment measures.
#include <gtest/gtest.h>

#include "moas/core/experiment.h"
#include "moas/obs/event.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

const topo::AsGraph& shared_topology() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(71);
    topo::InternetConfig config;
    config.tier1 = 5;
    config.tier2 = 18;
    config.tier3 = 30;
    config.stubs = 450;
    const topo::AsGraph internet = topo::generate_internet(config, rng);
    return topo::sample_to_size(internet, 90, rng, 0.10);
  }();
  return graph;
}

ExperimentConfig traced_config() {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.trace_level = obs::TraceLevel::Summary;
  return config;
}

RunResult traced_run(const ExperimentConfig& config, std::size_t attackers,
                     std::uint64_t seed) {
  const Experiment experiment(shared_topology(), config);
  util::Rng rng(seed);
  return experiment.run_once(attackers, rng);
}

TEST(ObsLatency, AttackRunMeasuresInjectionAndFirstAlarm) {
  const RunResult run = traced_run(traced_config(), /*attackers=*/2, /*seed=*/7);
  // The attack phase schedules within [now, now+0.5) — injection is a real
  // simulated instant, not a sentinel.
  ASSERT_GE(run.attack_injected_at, 0.0);
  // Full deployment with the oracle resolver detects the attack: the first
  // attacker-implicating alarm comes after injection, within the run.
  ASSERT_GE(run.first_alarm_latency, 0.0);
  EXPECT_LT(run.first_alarm_latency, 120.0);
  // Summary tracing resolves eviction: either the network got clean (>= 0)
  // or the run is explicitly marked stuck — never silently unmeasured.
  EXPECT_TRUE(run.eviction_latency >= 0.0 || run.false_route_stuck);
}

TEST(ObsLatency, NoAttackersMeansNoLatencies) {
  const RunResult run = traced_run(traced_config(), /*attackers=*/0, /*seed=*/3);
  EXPECT_EQ(run.attack_injected_at, -1.0);
  EXPECT_EQ(run.first_alarm_latency, -1.0);
  EXPECT_FALSE(run.false_route_stuck);
}

TEST(ObsLatency, EvictionNeedsSummaryTracing) {
  ExperimentConfig config = traced_config();
  config.trace_level = obs::TraceLevel::Off;
  const RunResult run = traced_run(config, /*attackers=*/2, /*seed=*/7);
  // First-alarm latency comes from the alarm log and survives Off...
  EXPECT_GE(run.first_alarm_latency, 0.0);
  // ...but eviction is computed from the route-change stream, which an Off
  // bus never records.
  EXPECT_EQ(run.eviction_latency, -1.0);
  EXPECT_FALSE(run.false_route_stuck);
}

TEST(ObsLatency, RunResultCountersComeFromTheRegistry) {
  const RunResult run = traced_run(traced_config(), /*attackers=*/2, /*seed=*/11);
  const obs::MetricsRegistry& m = run.metrics;
  EXPECT_EQ(run.messages, m.counter("network.messages_sent"));
  EXPECT_EQ(run.withdrawals, m.counter("router.withdrawals_sent"));
  EXPECT_EQ(run.announcements, m.counter("router.announcements_sent"));
  EXPECT_EQ(run.rejections, m.counter("detector.rejections"));
  EXPECT_EQ(run.resolver_queries, m.counter("resolver.queries"));
  EXPECT_GT(m.counter("router.decisions"), 0u);
  EXPECT_GT(m.counter("sim.events_executed"), 0u);
  EXPECT_EQ(m.gauge("network.routers"),
            static_cast<double>(shared_topology().node_count()));
}

TEST(ObsLatency, KeepTraceReturnsTheEventStream) {
  ExperimentConfig config = traced_config();
  config.keep_trace = true;
  const RunResult run = traced_run(config, /*attackers=*/2, /*seed=*/7);
  if (!obs::kTraceCompiledIn) {
    EXPECT_TRUE(run.trace.empty());
    return;
  }
  ASSERT_FALSE(run.trace.empty());
  // Timestamps are non-decreasing (the bus records in execution order) and
  // the stream contains the attack injection marker.
  bool saw_attack = false;
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(run.trace[i].at, run.trace[i - 1].at);
    }
    if (run.trace[i].kind == obs::EventKind::AttackInjected) saw_attack = true;
  }
  EXPECT_TRUE(saw_attack);
  // Without keep_trace the stream is discarded after the run's own use.
  config.keep_trace = false;
  EXPECT_TRUE(traced_run(config, 2, 7).trace.empty());
}

TEST(ObsLatency, TracingDoesNotPerturbTheExperiment) {
  ExperimentConfig off = traced_config();
  off.trace_level = obs::TraceLevel::Off;
  const RunResult untraced = traced_run(off, /*attackers=*/2, /*seed=*/13);
  const RunResult traced = traced_run(traced_config(), /*attackers=*/2, /*seed=*/13);
  EXPECT_EQ(untraced.adopted_false, traced.adopted_false);
  EXPECT_EQ(untraced.alarms, traced.alarms);
  EXPECT_EQ(untraced.messages, traced.messages);
  EXPECT_EQ(untraced.first_alarm_latency, traced.first_alarm_latency);
  EXPECT_EQ(untraced.metrics.counter("sim.events_executed"),
            traced.metrics.counter("sim.events_executed"));
}

TEST(ObsLatency, SweepPointsCarryLatencyHistograms) {
  const Experiment experiment(shared_topology(), traced_config());
  util::Rng rng(19);
  const std::vector<SweepPoint> points = experiment.sweep({0.10}, 2, 2, rng, 2);
  ASSERT_EQ(points.size(), 1u);
  const SweepPoint& point = points.front();
  const obs::FixedHistogram* alarm =
      point.metrics.find_histogram("detector.first_alarm_latency");
  const obs::FixedHistogram* evict =
      point.metrics.find_histogram("detector.eviction_latency");
  ASSERT_NE(alarm, nullptr);
  ASSERT_NE(evict, nullptr);
  EXPECT_TRUE(alarm->spec() == kAlarmLatencySpec);
  // Every run has attackers at this fraction, full deployment detects them.
  EXPECT_EQ(alarm->count(), point.runs);
  EXPECT_LE(evict->count() + point.runs_false_route_stuck, point.runs);
  // The merged registry aggregates all runs' counters.
  EXPECT_GT(point.metrics.counter("router.updates_received"), 0u);
}

}  // namespace
}  // namespace moas::core
