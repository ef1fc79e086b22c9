// stream_paper_trace: StreamDetector::run over a TraceReplaySource of the
// full paper trace (1,349 days, both spikes) with 10 % legitimate churn and
// 40 planned attacks; 8 shards on 2 workers, a 1 MiB per-shard budget, a
// per-shard day capacity of 512 and a monthly in-memory checkpoint.
//
// The closed loop runs at full rate. A sample of latency_ms is one trace
// day: from the feed handing out the day's first update to the return of
// the ingest call that flushed the day, seen by a harness-owned feed
// wrapper that polls last_flushed_day() at each next(). Untraced, the
// wrapper reads the clock only at day boundaries; traced, it also records
// a span per next() (source) and per ingest in between.
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "moas/measure/trace_gen.h"
#include "moas/stream/detector.h"
#include "moas/stream/replay.h"
#include "moas/util/rng.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using moas::stream::StreamUpdate;

class TimedFeed final : public moas::stream::UpdateFeed {
 public:
  TimedFeed(moas::stream::UpdateFeed& inner, int days, SpanLog* spans, std::int64_t root)
      : inner_(&inner), first_ns_(static_cast<std::size_t>(days), -1), spans_(spans),
        root_(root) {
    if (spans_) {
      source_ = spans_->name_id("stream.source");
      ingest_ = spans_->name_id("stream.ingest");
      flush_ = spans_->name_id("stream.flush");
    }
  }

  void attach(const moas::stream::StreamDetector& detector) { detector_ = &detector; }

  std::optional<StreamUpdate> next() override {
    const int flushed = detector_->last_flushed_day();
    std::int64_t entry = spans_ ? now_ns() : 0;
    if (spans_ && pending_ >= 0) {
      Span& ingest = spans_->at(static_cast<std::size_t>(pending_));
      ingest.end_ns = entry;
      if (flushed != seen_flushed_) ingest.name = flush_;
      pending_ = -1;
    }
    if (flushed != seen_flushed_) record_flushed(flushed, spans_ ? entry : now_ns());

    std::optional<StreamUpdate> update = inner_->next();
    std::int64_t exit = spans_ ? now_ns() : 0;
    if (update && update->day != current_day_) {
      if (!spans_) exit = now_ns();
      first_ns_[static_cast<std::size_t>(update->day)] = exit;
      current_day_ = update->day;
    }
    if (spans_) {
      const std::int64_t day = update ? update->day : -1;
      spans_->add(source_, root_, entry, exit, day);
      if (update) pending_ = static_cast<std::int64_t>(spans_->add(ingest_, root_, exit, exit, day));
    }
    if (!update) drained_ns_ = spans_ ? exit : now_ns();
    return update;
  }

  /// Days flushed since the last poll complete at `at_ns`.
  void record_flushed(int flushed, std::int64_t at_ns) {
    for (int day = seen_flushed_ + 1; day <= flushed; ++day) {
      const std::int64_t first = first_ns_[static_cast<std::size_t>(day)];
      if (first >= 0) latency_ms_.push_back((at_ns - first) / 1e6);
    }
    seen_flushed_ = flushed;
  }

  /// The open ingest span (the checkpoint sink's parent), or -1.
  std::int64_t pending_ingest() const { return pending_; }
  /// When the feed ran dry (run() then flushes the tail and finishes).
  std::int64_t drained_ns() const { return drained_ns_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  moas::stream::UpdateFeed* inner_;
  const moas::stream::StreamDetector* detector_ = nullptr;
  std::vector<std::int64_t> first_ns_;  // per day: first update handed out
  std::vector<double> latency_ms_;
  int current_day_ = -1;
  int seen_flushed_ = -1;
  std::int64_t drained_ns_ = 0;
  SpanLog* spans_;
  std::int64_t root_;
  std::int64_t pending_ = -1;
  std::uint32_t source_ = 0, ingest_ = 0, flush_ = 0;
};

}  // namespace

PassReport run_stream_paper_trace(const Options& options) {
  PassReport report(options);
  SpanLog spans;

  // Set-up: the paper trace (fixed, as in the figure benches) and the
  // seeded churn and attack plans.
  const std::int64_t setup_start = now_ns();
  const auto setup_root = static_cast<std::int64_t>(
      options.traced ? spans.add(spans.name_id("setup"), -1, setup_start, setup_start) : 0);
  std::size_t span = options.traced ? spans.open("measure.generate_trace", setup_root) : 0;
  moas::util::Rng trace_rng(1997);
  const moas::measure::SyntheticTrace trace =
      moas::measure::generate_trace(moas::measure::TraceConfig{}, trace_rng);
  if (options.traced) spans.close(span);
  span = options.traced ? spans.open("stream.plan", setup_root) : 0;
  moas::stream::ChurnConfig churn_config;
  churn_config.seed = 10 + options.seed;
  churn_config.share = 0.1;
  const auto churn = moas::stream::plan_churn(trace, churn_config);
  moas::stream::AttackConfig attack_config;
  attack_config.seed = 12 + options.seed;
  attack_config.attacks = 40;
  const auto attacks = moas::stream::plan_attacks(trace, attack_config, churn);
  std::vector<moas::stream::OriginOverride> overrides = churn;
  for (const auto& attack : attacks) overrides.push_back(attack.inject);
  if (options.traced) spans.close(span);

  moas::stream::StreamConfig config;
  config.shards = 8;
  config.jobs = kJobs;
  config.flush_margin = 16;
  config.checkpoint_every_days = 30;
  config.shard.alarm_retention = 512;
  config.shard.memory_budget_bytes = 1ull << 20;
  config.shard.evict_idle_days = 30;
  config.shard.day_capacity = 512;
  moas::stream::TraceReplaySource source(trace, overrides);
  moas::stream::StreamDetector detector(config);
  const std::int64_t setup_end = now_ns();
  if (options.traced) {
    spans.at(static_cast<std::size_t>(setup_root)).end_ns = setup_end;
    spans.reserve(3'000'000);  // two spans per update, kept in memory
  }

  // Timed section: the run, with a monthly checkpoint saved to memory.
  report.timed.begin();
  const auto root = static_cast<std::int64_t>(
      options.traced ? spans.add(spans.name_id("run"), -1, report.timed.start_ns(), 0) : 0);
  TimedFeed feed(source, trace.days, options.traced ? &spans : nullptr, root);
  feed.attach(detector);
  std::string last_checkpoint;
  std::vector<double> checkpoint_bytes;
  const std::uint32_t checkpoint_name = spans.name_id("stream.checkpoint");
  detector.run(feed, [&](const moas::stream::StreamDetector& d, int day) {
    const std::int64_t start = options.traced ? now_ns() : 0;
    std::ostringstream out;
    d.save_checkpoint(out);
    last_checkpoint = std::move(out).str();
    checkpoint_bytes.push_back(static_cast<double>(last_checkpoint.size()));
    if (options.traced) {
      spans.add(checkpoint_name, feed.pending_ingest(), start, now_ns(), day);
    }
  });
  const std::int64_t run_end = now_ns();
  feed.record_flushed(detector.last_flushed_day(), run_end);
  report.timed.end();

  // Outputs and gates.
  const moas::obs::MetricsRegistry metrics = detector.metrics();
  const std::uint64_t delivered = metrics.counter("stream.delivered");
  const std::uint64_t shed = metrics.counter("stream.shed_updates");
  const std::uint64_t late = metrics.counter("stream.late_updates");
  const std::uint64_t malformed = metrics.counter("stream.malformed_rejected");
  const Ratio failed_ratio = stream_failed_ratio(shed, late, malformed, delivered);
  report.attempted = delivered;
  report.failed = late + malformed;  // refused outright; shed updates still run detection

  const auto outcomes = moas::stream::evaluate_attacks(attacks, detector.merged_alarms(), nullptr);
  std::size_t lost = 0, alarmed = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.alarmed) ++alarmed;
    if (outcome.observable && (!outcome.alarmed || !outcome.all_settled)) ++lost;
  }
  const double open_alarms = metrics.gauge("stream.open_alarms");
  const std::uint64_t budget = config.shards * config.shard.memory_budget_bytes;
  report.gate(lost == 0, std::to_string(lost) + " lost alarms (" + std::to_string(alarmed) +
                             " of " + std::to_string(outcomes.size()) + " attacks alarmed)");
  report.gate(open_alarms == 0.0, json_number(open_alarms) + " alarms open after finish");
  report.gate(detector.peak_bytes() <= budget,
              "peak " + std::to_string(detector.peak_bytes()) + " B <= " +
                  std::to_string(budget) + " B (shards x budget)");
  bool restores = false;
  if (!last_checkpoint.empty()) {
    std::istringstream in(last_checkpoint);
    const auto restored = moas::stream::StreamDetector::restore_checkpoint(in, config);
    std::ostringstream again;
    restored.save_checkpoint(again);
    restores = again.str() == last_checkpoint;
  }
  report.gate(restores, "last of " + std::to_string(checkpoint_bytes.size()) +
                            " checkpoints restores and re-saves byte-identically");

  Fingerprint fingerprint;
  fingerprint.add(detector.alarm_log_text());
  fingerprint.add(metrics.to_json());
  fingerprint.add(last_checkpoint);
  report.fingerprint = fingerprint.hex();
  report.note(std::to_string(trace.days) + " days, " + std::to_string(delivered) +
              " updates, " + std::to_string(metrics.counter("stream.alarms_raised")) +
              " alarms, " + std::to_string(shed) + " shed, " +
              std::to_string(metrics.counter("stream.evicted_prefixes")) + " evicted");
  report.note("failed_ratio " + failed_ratio.describe());

  const std::vector<double>& day_ms = feed.latency_ms();
  EndToEnd e2e;
  e2e.setup_s = (setup_end - setup_start) / 1e9;
  e2e.work = static_cast<double>(delivered);
  e2e.success_ratio = 1.0 - failed_ratio.value();
  const auto p50 = percentile(day_ms, 0.50);
  const auto p90 = percentile(day_ms, 0.90);
  report.gate(p50 && p90, "day-latency percentiles have >= 10 samples beyond them (n=" +
                              std::to_string(day_ms.size()) + ")");
  e2e.latency_ms_p50 = p50.value_or(0.0);
  e2e.latency_ms_p90 = p90.value_or(0.0);
  report_end_to_end(report, e2e);

  if (options.traced) {
    spans.at(static_cast<std::size_t>(root)).end_ns = report.timed.end_ns();
    spans.add(spans.name_id("stream.finish"), root, feed.drained_ns(), run_end);
    report_layers(report, spans, static_cast<std::size_t>(root), options,
                  {"stream.source", "stream.ingest"});
    const auto setup = layer_times(spans, static_cast<std::size_t>(setup_root));
    const auto layers = layer_times(spans, static_cast<std::size_t>(root));
    const auto self_ms = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.self_ns / 1e6;
    };
    const std::vector<double> flush_ms = durations_ms(spans, "stream.flush");
    const std::vector<double> checkpoint_ms = durations_ms(spans, "stream.checkpoint");
    const std::uint64_t processed = metrics.counter("stream.updates_processed");
    report.set("measure.generate_trace_ms", setup.at("measure.generate_trace").total_ns / 1e6);
    report.set("stream.plan_ms", setup.at("stream.plan").total_ns / 1e6);
    report.set("stream.source_ms", self_ms("stream.source"));
    report.set("stream.ingest_ms", self_ms("stream.ingest"));
    report.set("stream.finish_ms", self_ms("stream.finish"));
    report.set("stream.flush_ms_p50", percentile(flush_ms, 0.50).value_or(0.0));
    report.set("stream.flush_ms_p90", percentile(flush_ms, 0.90).value_or(0.0));
    report.set("stream.checkpoint_ms_p50", percentile(checkpoint_ms, 0.50).value_or(0.0));
    report.set("stream.checkpoint_bytes", median(checkpoint_bytes));
    report.set("stream.delivered", static_cast<double>(delivered));
    report.set("stream.updates_processed", static_cast<double>(processed));
    report.set("stream.full_fidelity_share",
               static_cast<double>(processed) / static_cast<double>(delivered));
    report.set("stream.shed_updates", static_cast<double>(shed));
    report.set("stream.evicted_prefixes",
               static_cast<double>(metrics.counter("stream.evicted_prefixes")));
    report.set("stream.alarms_raised", static_cast<double>(metrics.counter("stream.alarms_raised")));
    report.set("stream.peak_bytes", static_cast<double>(detector.peak_bytes()));
    report.note("stream.full_fidelity_share base: " + std::to_string(processed) +
                " fully processed / " + std::to_string(delivered) + " delivered; flush n=" +
                std::to_string(flush_ms.size()) + ", checkpoint n=" +
                std::to_string(checkpoint_ms.size()));
  }
  return report;
}

}  // namespace perfbench
