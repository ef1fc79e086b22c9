// Streaming-pipeline SLO bench: replay the synthetic trace through the
// sharded StreamDetector under three feed regimes and report throughput and
// first-alarm latency percentiles.
//
//   clean    steady feed, injected attacks + legitimate churn
//   bursty   heavy short-lived fault churn + a per-shard day capacity, so
//            the load shedder is actually in the path
//   faulted  the clean workload behind a chaos::FeedFaultSchedule (gap
//            windows, duplicates, bounded reorder, garbled lines)
//
// Gates (exit 1 on violation, all modes):
//   - zero lost alarms: every attack whose window was observable (not fully
//     inside a feed gap) raises an alarm that reaches a terminal state
//   - bounded memory: peak accounted bytes <= shards * per-shard budget
//   - zero open alarms after finish()
//   - byte-identical alarm log + metrics across --jobs on the faulted feed
//
// Usage:
//   stream_replay [--smoke] [--jobs N] [--out PATH]
//
// --smoke shrinks the trace (sanitizer-friendly) but keeps every gate.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

struct ScenarioSpec {
  std::string name;
  measure::TraceConfig trace;
  std::size_t attacks = 0;
  double churn_share = 0.1;
  int churn_min_active_days = 60;
  int day_capacity = 0;  // 0 = never shed
  bool faulted = false;
};

struct ScenarioResult {
  std::string name;
  int days = 0;
  std::uint64_t updates = 0;
  double wall_seconds = 0.0;
  double updates_per_sec = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  // detector.first_alarm_latency
  std::uint64_t alarms_raised = 0;
  std::uint64_t alarms_parked = 0;
  std::uint64_t shed_updates = 0;
  std::uint64_t evicted_prefixes = 0;
  std::uint64_t gap_days = 0;
  std::size_t attacks = 0;
  std::size_t attacks_observable = 0;
  std::size_t attacks_alarmed = 0;
  std::size_t lost_alarms = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t budget_bytes = 0;  // shards * per-shard budget
  bool memory_bounded = false;
  double open_alarms_at_end = 0.0;
  std::string fingerprint;  // alarm log + metrics manifest
};

ScenarioResult run_scenario(const ScenarioSpec& spec, std::size_t jobs,
                            std::uint64_t memory_budget_bytes) {
  util::Rng rng(spec.trace.days);  // trace seed varies with the spec
  const auto trace = measure::generate_trace(spec.trace, rng);

  stream::ChurnConfig churn_config;
  churn_config.seed = 11;
  churn_config.share = spec.churn_share;
  churn_config.min_active_days = spec.churn_min_active_days;
  const auto churn = stream::plan_churn(trace, churn_config);
  stream::AttackConfig attack_config;
  attack_config.seed = 13;
  attack_config.attacks = spec.attacks;
  const auto plans = stream::plan_attacks(trace, attack_config, churn);

  std::vector<stream::OriginOverride> overrides = churn;
  for (const auto& p : plans) overrides.push_back(p.inject);

  chaos::FeedFaultSchedule faults;
  if (spec.faulted) {
    chaos::FeedFaultConfig fault_config;
    fault_config.seed = 97;
    fault_config.horizon_days = trace.days;
    fault_config.gaps = 2.0;
    fault_config.gap_mean_days = 2.0;
    fault_config.duplicate_prob = 0.01;
    fault_config.reorder_prob = 0.02;
    fault_config.reorder_max_skew = 8;
    fault_config.garble_prob = 0.005;
    faults = chaos::compile_feed_faults(fault_config);
  }

  stream::StreamConfig config;
  config.shards = 8;
  config.jobs = jobs;
  config.flush_margin = 16;  // must cover the transport's reorder skew
  config.shard.alarm_retention = 512;
  config.shard.memory_budget_bytes = memory_budget_bytes;
  config.shard.evict_idle_days = 30;
  config.shard.day_capacity = spec.day_capacity;

  stream::TraceReplaySource source(trace, overrides);
  stream::FaultyFeed feed(source, faults);
  stream::StreamDetector detector(config);
  const auto start = std::chrono::steady_clock::now();
  detector.run(feed);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const auto metrics = detector.metrics();
  ScenarioResult r;
  r.name = spec.name;
  r.days = trace.days;
  r.updates = metrics.counter("stream.delivered");
  r.wall_seconds = wall;
  r.updates_per_sec = wall > 0.0 ? static_cast<double>(r.updates) / wall : 0.0;
  const auto* latency = metrics.find_histogram("detector.first_alarm_latency");
  if (latency != nullptr && !latency->empty()) {
    r.p50 = latency->quantile(0.50);
    r.p90 = latency->quantile(0.90);
    r.p99 = latency->quantile(0.99);
  }
  r.alarms_raised = metrics.counter("stream.alarms_raised");
  r.alarms_parked = metrics.counter("stream.alarms_parked");
  r.shed_updates = metrics.counter("stream.shed_updates");
  r.evicted_prefixes = metrics.counter("stream.evicted_prefixes");
  r.gap_days = metrics.counter("stream.gap_days");
  r.open_alarms_at_end = metrics.gauge("stream.open_alarms");
  r.peak_bytes = detector.peak_bytes();
  r.budget_bytes = static_cast<std::uint64_t>(config.shards) * memory_budget_bytes;
  r.memory_bounded = r.peak_bytes <= r.budget_bytes;

  const auto outcomes = stream::evaluate_attacks(plans, detector.merged_alarms(),
                                                 spec.faulted ? &faults : nullptr);
  r.attacks = outcomes.size();
  for (const auto& o : outcomes) {
    if (!o.observable) continue;
    ++r.attacks_observable;
    if (o.alarmed) ++r.attacks_alarmed;
    if (!o.alarmed || !o.all_settled) ++r.lost_alarms;
  }
  r.fingerprint = detector.alarm_log_text() + metrics.to_json();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_stream.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--out" && i + 1 < argc) out_path = argv[i + 1];
  }
  const std::size_t jobs = bench_jobs(argc, argv);
  const std::uint64_t budget = smoke ? 128ull * 1024 : 512ull * 1024;

  measure::TraceConfig base;
  base.days = smoke ? 60 : 365;
  base.active_start = smoke ? 40 : 150;
  base.active_end = smoke ? 50 : 180;
  base.faults_per_day = 5.0;
  base.include_spike_1998 = false;
  base.include_spike_2001 = false;

  std::vector<ScenarioSpec> specs(3);
  specs[0].name = "clean";
  specs[0].trace = base;
  specs[1].name = "bursty";
  specs[1].trace = base;
  specs[1].trace.faults_per_day = smoke ? 25.0 : 80.0;
  specs[1].day_capacity = smoke ? 4 : 16;
  specs[2].name = "faulted";
  specs[2].trace = base;
  specs[2].faulted = true;
  for (auto& s : specs) {
    s.attacks = smoke ? 4 : 12;
    s.churn_min_active_days = smoke ? 30 : 60;
  }

  std::cout << "=== Streaming replay SLOs (" << (smoke ? "smoke" : "full") << ", jobs="
            << jobs << ") ===\n\n";

  std::vector<ScenarioResult> results;
  for (const auto& spec : specs) results.push_back(run_scenario(spec, jobs, budget));

  // Determinism gate: the faulted feed, replayed at a different job count,
  // must fingerprint byte-identically.
  const std::size_t other_jobs = jobs == 1 ? 2 : 1;
  const ScenarioResult rerun = run_scenario(specs[2], other_jobs, budget);
  const bool deterministic = rerun.fingerprint == results[2].fingerprint;

  util::TablePrinter table({"scenario", "days", "updates", "upd/s", "p50_lat", "p90_lat",
                            "p99_lat", "alarms", "lost", "peak_kb"});
  for (const auto& r : results) {
    table.add_row({r.name, std::to_string(r.days), std::to_string(r.updates),
                   util::fmt_double(r.updates_per_sec, 0), util::fmt_double(r.p50, 3),
                   util::fmt_double(r.p90, 3), util::fmt_double(r.p99, 3),
                   std::to_string(r.alarms_raised), std::to_string(r.lost_alarms),
                   std::to_string(r.peak_bytes / 1024)});
  }
  table.print(std::cout);
  std::cout << "\nfaulted feed deterministic across jobs " << jobs << "/" << other_jobs
            << ": " << (deterministic ? "yes" : "NO") << "\n";

  bool gates_passed = deterministic;
  for (const auto& r : results) {
    if (r.lost_alarms > 0 || !r.memory_bounded || r.open_alarms_at_end != 0.0) {
      gates_passed = false;
    }
  }

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"stream_replay\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"jobs\": " << jobs << ",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"note\": \"1-core baseline: updates/s reflects a single core; "
         "the determinism and zero-lost-alarm gates are hardware-independent\",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"days\": " << r.days
        << ", \"updates\": " << r.updates
        << ", \"wall_seconds\": " << json_double(r.wall_seconds)
        << ", \"updates_per_sec\": " << json_double(r.updates_per_sec)
        << ",\n     \"latency_p50_days\": " << json_double(r.p50)
        << ", \"latency_p90_days\": " << json_double(r.p90)
        << ", \"latency_p99_days\": " << json_double(r.p99)
        << ",\n     \"alarms_raised\": " << r.alarms_raised
        << ", \"alarms_parked\": " << r.alarms_parked
        << ", \"shed_updates\": " << r.shed_updates
        << ", \"evicted_prefixes\": " << r.evicted_prefixes
        << ", \"gap_days\": " << r.gap_days
        << ",\n     \"attacks\": " << r.attacks
        << ", \"attacks_observable\": " << r.attacks_observable
        << ", \"attacks_alarmed\": " << r.attacks_alarmed
        << ", \"lost_alarms\": " << r.lost_alarms
        << ",\n     \"peak_bytes\": " << r.peak_bytes
        << ", \"budget_bytes\": " << r.budget_bytes
        << ", \"memory_bounded\": " << (r.memory_bounded ? "true" : "false")
        << ", \"open_alarms_at_end\": " << json_double(r.open_alarms_at_end) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"deterministic_across_jobs\": " << (deterministic ? "true" : "false") << ",\n";
  out << "  \"gates_passed\": " << (gates_passed ? "true" : "false") << "\n";
  out << "}\n";
  out.close();
  std::cout << "wrote " << out_path << "\n";

  if (!gates_passed) {
    for (const auto& r : results) {
      if (r.lost_alarms > 0) {
        std::cerr << "FAIL [" << r.name << "]: " << r.lost_alarms
                  << " observable attack(s) lost (no alarm or never settled)\n";
      }
      if (!r.memory_bounded) {
        std::cerr << "FAIL [" << r.name << "]: peak " << r.peak_bytes
                  << " bytes exceeds the " << r.budget_bytes << "-byte budget\n";
      }
      if (r.open_alarms_at_end != 0.0) {
        std::cerr << "FAIL [" << r.name << "]: " << r.open_alarms_at_end
                  << " alarms still open after finish()\n";
      }
    }
    if (!deterministic) {
      std::cerr << "FAIL: faulted replay diverged between jobs=" << jobs << " and jobs="
                << other_jobs << "\n";
    }
    return 1;
  }
  return 0;
}
