// paper_sweep: the fig9 (one valid origin) event-engine sweep, driven the
// way bench::run_curves drives it — plan every curve, run all planned runs
// through one pool, reduce per curve in plan order — with each run_with
// call timed from outside.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "moas/core/experiment.h"
#include "moas/util/rng.h"
#include "moas/util/strings.h"
#include "moas/util/thread_pool.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kTopologySize = 460;
constexpr std::size_t kAttackerSets = 10;  // the figure benches' budget

struct Slot {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

}  // namespace

PassReport run_paper_sweep(const Options& options) {
  PassReport report(options);
  SpanLog spans;

  // Set-up: the fixed ~10k-AS Internet and the paper's sampled topologies.
  const std::int64_t setup_start = now_ns();
  std::size_t setup_root = 0;
  if (options.traced) {
    setup_root = spans.add(spans.name_id("setup"), -1, setup_start, setup_start);
    const std::size_t generate = spans.open("topo.generate", static_cast<std::int64_t>(setup_root));
    moas::bench::shared_internet();
    spans.close(generate);
    const std::size_t sample = spans.open("topo.sample", static_cast<std::int64_t>(setup_root));
    moas::bench::paper_topology(kTopologySize);
    spans.close(sample);
  }
  const moas::topo::AsGraph& graph = moas::bench::paper_topology(kTopologySize);
  // Fig9(a) curves in the figure's order; both draw from the same seed.
  std::vector<moas::bench::CurveSpec> specs;
  for (const auto deployment : {moas::core::Deployment::None, moas::core::Deployment::Full}) {
    moas::core::ExperimentConfig config;
    config.num_origins = 1;
    config.trace_level = moas::obs::TraceLevel::Summary;
    config.deployment = deployment;
    specs.push_back({moas::core::to_string(deployment), &graph, config,
                     kTopologySize + options.seed, kAttackerSets});
  }
  const std::int64_t setup_end = now_ns();
  if (options.traced) spans.at(setup_root).end_ns = setup_end;

  // Timed section: plan -> pooled run_with -> reduce.
  report.timed.begin();
  const auto root = static_cast<std::int64_t>(
      options.traced ? spans.add(spans.name_id("run"), -1, report.timed.start_ns(), 0) : 0);
  std::vector<moas::core::Experiment> experiments;
  std::vector<moas::core::SweepPlan> plans;
  std::vector<std::vector<moas::core::RunResult>> results(specs.size());
  std::vector<std::vector<Slot>> slots(specs.size());
  experiments.reserve(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const std::size_t span = options.traced ? spans.open("core.plan", root) : 0;
    experiments.emplace_back(*specs[c].graph, specs[c].config);
    moas::util::Rng rng(specs[c].seed);
    plans.push_back(experiments.back().plan_sweep(moas::bench::paper_attacker_fractions(),
                                                  moas::bench::kOriginSets,
                                                  specs[c].attacker_sets, rng));
    results[c].resize(plans[c].runs.size());
    slots[c].resize(plans[c].runs.size());
    if (options.traced) spans.close(span);
  }
  const std::int64_t drain_start = now_ns();
  {
    moas::util::ThreadPool pool(kJobs);
    for (std::size_t c = 0; c < specs.size(); ++c) {
      for (std::size_t i = 0; i < plans[c].runs.size(); ++i) {
        pool.submit([&experiments, &plans, &results, &slots, c, i] {
          const moas::core::PlannedRun& run = plans[c].runs[i];
          slots[c][i].start_ns = now_ns();
          results[c][i] = experiments[c].run_with(run.origins, run.attackers, run.seed);
          slots[c][i].end_ns = now_ns();
        });
      }
    }
    pool.wait();
  }
  const std::int64_t drain_end = now_ns();
  std::vector<std::vector<moas::core::SweepPoint>> curves;
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const std::size_t span = options.traced ? spans.open("core.reduce", root) : 0;
    curves.push_back(experiments[c].reduce_plan(plans[c], results[c]));
    if (options.traced) spans.close(span);
  }
  report.timed.end();

  // Outputs, totals and gates.
  std::vector<double> run_ms;
  std::vector<double> run_ms_by_curve[2];
  double busy_ns = 0.0;
  std::int64_t last_start = drain_start;
  std::uint64_t not_quiesced = 0, pending = 0, false_alarms = 0, alarms = 0, messages = 0,
                announcements = 0, withdrawals = 0, rejections = 0, resolver_queries = 0,
                events = 0, runs = 0;
  double propagation_s = 0.0;
  for (std::size_t c = 0; c < specs.size(); ++c) {
    for (std::size_t i = 0; i < results[c].size(); ++i) {
      const moas::core::RunResult& r = results[c][i];
      const Slot& slot = slots[c][i];
      const double ms = (slot.end_ns - slot.start_ns) / 1e6;
      run_ms.push_back(ms);
      run_ms_by_curve[c].push_back(ms);
      busy_ns += static_cast<double>(slot.end_ns - slot.start_ns);
      last_start = std::max(last_start, slot.start_ns);
      ++runs;
      if (!r.quiesced || r.alarms_pending > 0) ++report.failed;
      not_quiesced += r.quiesced ? 0 : 1;
      pending += r.alarms_pending;
      false_alarms += r.false_alarms;
      alarms += r.alarms;
      messages += r.messages;
      announcements += r.announcements;
      withdrawals += r.withdrawals;
      rejections += r.rejections;
      resolver_queries += r.resolver_queries;
      events += r.metrics.counter("sim.events_executed");
      propagation_s += r.propagation_seconds;
    }
  }
  report.attempted = runs;
  report.gate(not_quiesced == 0, std::to_string(not_quiesced) + " of " + std::to_string(runs) +
                                     " runs did not quiesce");
  report.gate(pending == 0, std::to_string(pending) + " alarms left pending");
  report.gate(false_alarms == 0, std::to_string(false_alarms) + " false alarms");
  bool full_never_worse = true;
  for (std::size_t p = 0; p < curves[1].size(); ++p) {
    if (curves[1][p].mean_affected > curves[0][p].mean_affected) full_never_worse = false;
  }
  report.gate(full_never_worse, "full deployment affected <= none at every attacker fraction");

  Fingerprint fingerprint;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    fingerprint.add(specs[c].label);
    for (const moas::core::SweepPoint& point : curves[c]) {
      fingerprint.add(point.attacker_fraction);
      fingerprint.add(static_cast<std::uint64_t>(point.runs));
      fingerprint.add(point.mean_adopted_false);
      fingerprint.add(point.stddev_adopted_false);
      fingerprint.add(point.mean_affected);
      fingerprint.add(point.mean_no_route);
      fingerprint.add(point.mean_alarms);
      fingerprint.add(point.mean_false_alarms);
      fingerprint.add(point.mean_structural_cutoff);
      fingerprint.add(static_cast<std::uint64_t>(point.runs_false_route_stuck));
      fingerprint.add(point.metrics.to_json());
    }
  }
  report.fingerprint = fingerprint.hex();
  std::string table = "mean affected % (none | full):";
  for (std::size_t p = 0; p < curves[0].size(); ++p) {
    table += " " + moas::util::fmt_double(curves[0][p].attacker_fraction * 100, 0) + "%:" +
             moas::util::fmt_double(curves[0][p].mean_affected * 100, 2) + "|" +
             moas::util::fmt_double(curves[1][p].mean_affected * 100, 2);
  }
  report.note(table);
  report.note("messages " + std::to_string(messages) + ", alarms " + std::to_string(alarms) +
              ", runs " + std::to_string(runs));
  const Ratio failed_ratio = batch_failed_ratio(
      report.failed, runs, "runs not quiesced or with pending alarms", "runs");
  report.note("failed_ratio " + failed_ratio.describe());

  EndToEnd e2e;
  e2e.setup_s = (setup_end - setup_start) / 1e9;
  e2e.work = static_cast<double>(runs);
  e2e.success_ratio = 1.0 - failed_ratio.value();
  const auto p50 = percentile(run_ms, 0.50);
  const auto p90 = percentile(run_ms, 0.90);
  report.gate(p50 && p90, "per-run latency percentiles have >= 10 samples beyond them");
  e2e.latency_ms_p50 = p50.value_or(0.0);
  e2e.latency_ms_p90 = p90.value_or(0.0);
  report.note("latency = one scenario run (run_with call), n=" + std::to_string(run_ms.size()));
  report_end_to_end(report, e2e);

  if (options.traced) {
    spans.at(static_cast<std::size_t>(root)).end_ns = report.timed.end_ns();
    const std::size_t drain = spans.add(spans.name_id("util.pool.drain"), root, drain_start,
                                        drain_end);
    const std::uint32_t run_name = spans.name_id("core.run");
    std::int64_t request = 0;
    for (const auto& curve_slots : slots) {
      for (const Slot& slot : curve_slots) {
        spans.add(run_name, static_cast<std::int64_t>(drain), slot.start_ns, slot.end_ns,
                  request++, 1);
      }
    }
    const auto setup_layers = layer_times(spans, setup_root);
    report.set("topo.generate_ms", setup_layers.at("topo.generate").total_ns / 1e6);
    report.set("topo.sample_ms", setup_layers.at("topo.sample").total_ns / 1e6);
    report_layers(report, spans, static_cast<std::size_t>(root), options);
    const auto layers = layer_times(spans, static_cast<std::size_t>(root));
    const double drain_ns = static_cast<double>(drain_end - drain_start);
    report.set("core.plan_ms", layers.at("core.plan").total_ns / 1e6);
    report.set("core.reduce_ms", layers.at("core.reduce").total_ns / 1e6);
    report.set("core.run_ms_p50", percentile(run_ms, 0.50).value_or(0.0));
    report.set("core.run_ms_p90", percentile(run_ms, 0.90).value_or(0.0));
    report.set("core.run_none_ms_p50", percentile(run_ms_by_curve[0], 0.50).value_or(0.0));
    report.set("core.run_full_ms_p50", percentile(run_ms_by_curve[1], 0.50).value_or(0.0));
    report.set("sim.propagate_ms", propagation_s * 1e3);
    report.set("sim.propagate_share", propagation_s * 1e9 / busy_ns);
    report.set("sim.ns_per_message", propagation_s * 1e9 / static_cast<double>(messages));
    report.set("sim.events_executed", static_cast<double>(events));
    report.set("bgp.messages", static_cast<double>(messages));
    report.set("bgp.announcements", static_cast<double>(announcements));
    report.set("bgp.withdrawals", static_cast<double>(withdrawals));
    report.set("core.rejections", static_cast<double>(rejections));
    report.set("core.alarms", static_cast<double>(alarms));
    report.set("core.false_alarms", static_cast<double>(false_alarms));
    report.set("core.resolver_queries", static_cast<double>(resolver_queries));
    report.set("util.pool.busy_share", busy_ns / (drain_ns * static_cast<double>(kJobs)));
    report.set("util.pool.tail_ms", (drain_end - last_start) / 1e6);
    report.note("util.pool.busy_share base: " + json_number(busy_ns / 1e6) +
                " ms of run_with / (" + json_number(drain_ns / 1e6) + " ms drain x " +
                std::to_string(kJobs) + " workers)");
  }
  return report;
}

}  // namespace perfbench
