// Golden tests for the plan → execute → reduce sweep: the parallel runner
// must be bit-identical to the historical serial loop for a fixed seed,
// for any job count, and must leave the caller's Rng at the same stream
// position.
#include "moas/core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "moas/obs/event.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"
#include "moas/util/stats.h"
#include "moas/util/thread_pool.h"

namespace moas::core {
namespace {

/// A ~90-AS sampled topology (the paper's own sampling procedure), sized
/// so the 2-fraction x 2x2-run sweeps below stay fast.
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

ExperimentConfig sweep_config() {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  return config;
}

/// Reimplements the pre-refactor serial sweep verbatim: one shared Rng
/// threaded through the loop, sequential run_with, sequential
/// Accumulator::add in draw order. The refactored sweep() must reproduce
/// this bit for bit.
std::vector<SweepPoint> golden_serial_sweep(const Experiment& experiment,
                                            const std::vector<double>& fractions,
                                            std::size_t origin_sets,
                                            std::size_t attacker_sets, util::Rng& rng) {
  const topo::AsGraph& graph = shared_topology();
  std::vector<SweepPoint> points;
  for (double fraction : fractions) {
    std::size_t num_attackers = static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(graph.node_count())));
    if (fraction > 0.0 && num_attackers == 0) num_attackers = 1;
    util::Accumulator adopted, affected, no_route, alarms, false_alarms, cutoff;
    std::size_t stuck = 0;
    for (std::size_t i = 0; i < origin_sets; ++i) {
      const bgp::AsnSet origins = experiment.draw_origins(rng);
      for (std::size_t j = 0; j < attacker_sets; ++j) {
        const bgp::AsnSet attackers =
            experiment.draw_attackers(num_attackers, origins, rng);
        const RunResult run = experiment.run_with(origins, attackers, rng.next());
        adopted.add(run.adopted_false_fraction());
        affected.add(run.affected_fraction());
        no_route.add(run.no_route_fraction());
        alarms.add(static_cast<double>(run.alarms));
        false_alarms.add(static_cast<double>(run.false_alarms));
        cutoff.add(run.structural_cutoff);
        if (run.false_route_stuck) ++stuck;
      }
    }
    SweepPoint point;
    point.attacker_fraction = fraction;
    point.runs = adopted.count();
    point.mean_adopted_false = adopted.mean();
    point.stddev_adopted_false = adopted.stddev();
    point.mean_affected = affected.mean();
    point.mean_no_route = no_route.mean();
    point.mean_alarms = alarms.mean();
    point.mean_false_alarms = false_alarms.mean();
    point.mean_structural_cutoff = cutoff.mean();
    point.runs_false_route_stuck = stuck;
    points.push_back(point);
  }
  return points;
}

void expect_points_bitwise_equal(const std::vector<SweepPoint>& expected,
                                 const std::vector<SweepPoint>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const SweepPoint& e = expected[i];
    const SweepPoint& a = actual[i];
    // EXPECT_EQ on doubles on purpose: the contract is bit-identity, not
    // tolerance.
    EXPECT_EQ(e.attacker_fraction, a.attacker_fraction);
    EXPECT_EQ(e.runs, a.runs);
    EXPECT_EQ(e.mean_adopted_false, a.mean_adopted_false);
    EXPECT_EQ(e.stddev_adopted_false, a.stddev_adopted_false);
    EXPECT_EQ(e.mean_affected, a.mean_affected);
    EXPECT_EQ(e.mean_no_route, a.mean_no_route);
    EXPECT_EQ(e.mean_alarms, a.mean_alarms);
    EXPECT_EQ(e.mean_false_alarms, a.mean_false_alarms);
    EXPECT_EQ(e.mean_structural_cutoff, a.mean_structural_cutoff);
    EXPECT_EQ(e.runs_false_route_stuck, a.runs_false_route_stuck);
  }
}

TEST(SweepParallel, BitIdenticalToSerialGoldenForAnyJobCount) {
  const Experiment experiment(shared_topology(), sweep_config());
  const std::vector<double> fractions{0.05, 0.20};

  util::Rng golden_rng(77);
  const std::vector<SweepPoint> golden =
      golden_serial_sweep(experiment, fractions, 2, 2, golden_rng);
  const std::uint64_t golden_stream_next = golden_rng.next();

  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    util::Rng rng(77);
    const std::vector<SweepPoint> points = experiment.sweep(fractions, 2, 2, rng, jobs);
    expect_points_bitwise_equal(golden, points);
    // The planning pass consumed exactly the serial loop's draws: the
    // caller's Rng sits at the same stream position afterwards.
    EXPECT_EQ(rng.next(), golden_stream_next);
  }
}

TEST(SweepParallel, RunPointMatchesSingleFractionSweep) {
  const Experiment experiment(shared_topology(), sweep_config());
  util::Rng rng_point(5);
  const SweepPoint point = experiment.run_point(0.10, 2, 2, rng_point, 2);
  util::Rng rng_sweep(5);
  const std::vector<SweepPoint> points = experiment.sweep({0.10}, 2, 2, rng_sweep, 2);
  ASSERT_EQ(points.size(), 1u);
  expect_points_bitwise_equal({point}, points);
}

TEST(SweepParallel, PlanIsReproducibleAndOrdered) {
  const Experiment experiment(shared_topology(), sweep_config());
  util::Rng rng_a(13);
  util::Rng rng_b(13);
  const SweepPlan plan_a = experiment.plan_sweep({0.0, 0.10}, 2, 3, rng_a);
  const SweepPlan plan_b = experiment.plan_sweep({0.0, 0.10}, 2, 3, rng_b);
  ASSERT_EQ(plan_a.runs.size(), 2u * 2u * 3u);
  ASSERT_EQ(plan_a.runs.size(), plan_b.runs.size());
  EXPECT_EQ(plan_a.runs_per_point(), 6u);
  for (std::size_t i = 0; i < plan_a.runs.size(); ++i) {
    EXPECT_EQ(plan_a.runs[i].point, plan_b.runs[i].point);
    EXPECT_EQ(plan_a.runs[i].origins, plan_b.runs[i].origins);
    EXPECT_EQ(plan_a.runs[i].attackers, plan_b.runs[i].attackers);
    EXPECT_EQ(plan_a.runs[i].seed, plan_b.runs[i].seed);
    // Plan order is point-major: runs for fraction 0 precede fraction 1.
    EXPECT_EQ(plan_a.runs[i].point, i / 6);
  }
}

TEST(SweepParallel, EmptyRunBudgetIsRejectedUpFront) {
  const Experiment experiment(shared_topology(), sweep_config());
  util::Rng rng(1);
  EXPECT_THROW(experiment.run_point(0.10, 0, 5, rng), std::invalid_argument);
  EXPECT_THROW(experiment.run_point(0.10, 3, 0, rng), std::invalid_argument);
  EXPECT_THROW(experiment.sweep({0.10}, 0, 0, rng), std::invalid_argument);
}

TEST(SweepParallel, ReducePlanRejectsMismatchedResults) {
  const Experiment experiment(shared_topology(), sweep_config());
  util::Rng rng(3);
  const SweepPlan plan = experiment.plan_sweep({0.05}, 1, 2, rng);
  const std::vector<RunResult> too_few(1);
  EXPECT_THROW(experiment.reduce_plan(plan, too_few), std::invalid_argument);
}

TEST(SweepParallel, TraceAndMetricsIdenticalAcrossJobs) {
  // The observability layer rides the same plan → execute → reduce contract:
  // each run owns its trace bus and registry, and the harness serializes
  // them in plan order — so the concatenated JSONL trace and the reduced
  // per-point registries must be byte-identical for any job count. Summary
  // tracing is also the only setting that scores stuck false routes, so
  // the points are held to the serial golden here too.
  ExperimentConfig config = sweep_config();
  config.trace_level = obs::TraceLevel::Summary;
  config.keep_trace = true;
  const Experiment experiment(shared_topology(), config);
  const std::vector<double> fractions{0.05, 0.20};
  util::Rng golden_rng(77);
  const std::vector<SweepPoint> golden_points =
      golden_serial_sweep(experiment, fractions, 2, 2, golden_rng);

  std::string golden_trace;
  std::vector<std::string> golden_metrics;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    util::Rng rng(77);
    const SweepPlan plan = experiment.plan_sweep(fractions, 2, 2, rng);
    util::ThreadPool pool(jobs);
    const std::vector<RunResult> results = experiment.execute_plan(plan, pool);

    std::ostringstream trace;
    for (const RunResult& run : results) obs::write_trace_jsonl(trace, run.trace);

    const std::vector<SweepPoint> points = experiment.reduce_plan(plan, results);
    expect_points_bitwise_equal(golden_points, points);
    std::vector<std::string> metrics;
    for (const SweepPoint& point : points) metrics.push_back(point.metrics.to_json());

    if (jobs == 1) {
      golden_trace = trace.str();
      golden_metrics = metrics;
      if (obs::kTraceCompiledIn) {
        EXPECT_FALSE(golden_trace.empty());
      }
    } else {
      EXPECT_EQ(trace.str(), golden_trace);
      EXPECT_EQ(metrics, golden_metrics);
    }
  }
}

TEST(SweepParallel, WaveEngineSweepBitIdenticalAcrossJobCounts) {
  // The wave engine rides the same plan → execute → reduce contract as the
  // event engine: runs are self-contained (the engine is built per run) and
  // the reduction replays plan order, so sweep output — merged registries
  // included — is byte-identical for any job count.
  ExperimentConfig config = sweep_config();
  config.engine = Engine::Wave;
  config.mrai = 0.0;
  config.prefer_established = false;
  const Experiment experiment(shared_topology(), config);
  const std::vector<double> fractions{0.05, 0.20};

  std::vector<SweepPoint> golden;
  std::vector<std::string> golden_metrics;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    util::Rng rng(77);
    const std::vector<SweepPoint> points = experiment.sweep(fractions, 2, 2, rng, jobs);
    std::vector<std::string> metrics;
    for (const SweepPoint& point : points) metrics.push_back(point.metrics.to_json());
    if (jobs == 1) {
      golden = points;
      golden_metrics = metrics;
      EXPECT_GT(points.front().runs, 0u);
    } else {
      expect_points_bitwise_equal(golden, points);
      EXPECT_EQ(metrics, golden_metrics);
    }
  }
}

TEST(SweepParallel, SharedPoolAcrossPlansMatchesPerSweepPools) {
  // bench_util::run_curves funnels several experiments' plans through one
  // pool; that must not change any curve's output.
  const Experiment experiment(shared_topology(), sweep_config());
  const std::vector<double> fractions{0.05, 0.20};

  util::Rng rng_solo(21);
  const std::vector<SweepPoint> solo = experiment.sweep(fractions, 2, 2, rng_solo, 2);

  util::Rng rng_shared(21);
  const SweepPlan plan = experiment.plan_sweep(fractions, 2, 2, rng_shared);
  util::ThreadPool pool(2);
  const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
  const std::vector<SweepPoint> shared = experiment.reduce_plan(plan, results);

  expect_points_bitwise_equal(solo, shared);
}

TEST(SweepParallel, WorkerArenasKeepFinalRibsCanonical) {
  // Every worker runs in arenas of its own; the final RIBs each copies into
  // the shared process arena must come back as the serial run's handles.
  ExperimentConfig config = sweep_config();
  config.num_origins = 2;
  config.keep_final_ribs = true;
  const Experiment experiment(shared_topology(), config);
  util::Rng rng(23);
  const SweepPlan plan = experiment.plan_sweep({0.05, 0.20}, 2, 2, rng);
  util::ThreadPool serial(1);
  const std::vector<RunResult> golden = experiment.execute_plan(plan, serial);
  util::ThreadPool pool(4);
  const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
  ASSERT_EQ(results.size(), golden.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].final_ribs.empty());
    EXPECT_EQ(results[i].final_ribs, golden[i].final_ribs) << "run " << i;
  }
}

}  // namespace
}  // namespace moas::core
