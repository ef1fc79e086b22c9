#include "moas/stream/detector.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "moas/stream/checkpoint.h"
#include "moas/util/assert.h"
#include "moas/util/strings.h"

namespace moas::stream {

namespace {

/// Sliding window of recent sequence numbers for duplicate suppression.
constexpr std::size_t kDupWindow = 4096;

}  // namespace

StreamDetector::StreamDetector(StreamConfig config) : config_(std::move(config)) {
  MOAS_REQUIRE(config_.shards > 0, "need at least one shard");
  MOAS_REQUIRE(config_.flush_margin > 0, "flush margin must be positive");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) shards_.emplace_back(config_.shard);
}

util::ThreadPool& StreamDetector::pool() {
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(config_.jobs);
  return *pool_;
}

void StreamDetector::ingest(StreamUpdate u) {
  MOAS_REQUIRE(!finished_, "detector already finished");
  ++consumed_;
  ++front_.delivered;

  if (u.malformed) {
    ++front_.malformed_rejected;
    return;
  }
  if (dup_seen_.contains(u.seq)) {
    ++front_.duplicates_suppressed;
    return;
  }
  dup_seen_.insert(u.seq);
  dup_order_.push_back(u.seq);
  if (dup_order_.size() > kDupWindow) {
    dup_seen_.erase(dup_order_.front());
    dup_order_.pop_front();
  }

  // An update whose day already flushed can't rejoin its batch; it rides
  // in the next open day (per-prefix accounting keys on u.day, not on the
  // batch it happened to travel with).
  int key = u.day;
  if (key <= last_flushed_day_) {
    ++front_.late_updates;
    key = last_flushed_day_ + 1;
  }
  for (auto& [day, count] : later_counts_) {
    if (day < key) ++count;
  }
  later_counts_.try_emplace(key, 0);
  buffered_[key].push_back(std::move(u));
  flush_ready();
}

void StreamDetector::flush_ready() {
  while (!buffered_.empty()) {
    const int oldest = buffered_.begin()->first;
    if (later_counts_[oldest] <= static_cast<std::uint64_t>(config_.flush_margin)) break;
    std::vector<StreamUpdate> batch = std::move(buffered_.begin()->second);
    buffered_.erase(buffered_.begin());
    later_counts_.erase(oldest);
    flush_day(oldest, std::move(batch));
  }
}

void StreamDetector::flush_all() {
  MOAS_REQUIRE(!finished_, "detector already finished");
  while (!buffered_.empty()) {
    const int oldest = buffered_.begin()->first;
    std::vector<StreamUpdate> batch = std::move(buffered_.begin()->second);
    buffered_.erase(buffered_.begin());
    later_counts_.erase(oldest);
    flush_day(oldest, std::move(batch));
  }
}

void StreamDetector::flush_day(const int day, std::vector<StreamUpdate> batch) {
  // Feed gap: days the transport never delivered. The shards need the
  // window before processing this day so a conflict first seen across the
  // gap parks as Pending instead of raising a firm alarm.
  std::vector<chaos::GapWindow> new_gaps;
  if (day > last_flushed_day_ + 1) {
    chaos::GapWindow g;
    g.first_day = last_flushed_day_ + 1;
    g.last_day = day - 1;
    front_.gap_days += static_cast<std::uint64_t>(g.last_day - g.first_day + 1);
    new_gaps.push_back(g);
    if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
      obs::TraceEvent event(obs::EventKind::FeedGap, kStreamObserver);
      event.at = static_cast<double>(day);
      event.with_values(g.first_day, g.last_day);
      trace_->emit(std::move(event));
    }
  }

  std::sort(batch.begin(), batch.end(), [](const StreamUpdate& a, const StreamUpdate& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });

  std::vector<std::vector<const StreamUpdate*>> slices(shards_.size());
  for (const StreamUpdate& u : batch) slices[shard_of(u.prefix)].push_back(&u);

  std::vector<std::uint64_t> shed_before(shards_.size());
  std::vector<std::uint64_t> evicted_before(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shed_before[i] = shards_[i].counters().shed_updates;
    evicted_before[i] = shards_[i].counters().evicted_prefixes;
  }

  pool().parallel_for(shards_.size(), [&](const std::size_t i) {
    shards_[i].process_day(day, new_gaps, slices[i]);
  });

  // Post-barrier: the serial front-end owns observability.
  if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::uint64_t shed = shards_[i].counters().shed_updates - shed_before[i];
      if (shed > 0) {
        obs::TraceEvent event(obs::EventKind::UpdatesShed, kStreamObserver);
        event.at = static_cast<double>(day) + 1.0;
        event.with_values(static_cast<std::int64_t>(shed), static_cast<std::int64_t>(i));
        trace_->emit(std::move(event));
      }
      const std::uint64_t evicted = shards_[i].counters().evicted_prefixes - evicted_before[i];
      if (evicted > 0) {
        obs::TraceEvent event(obs::EventKind::StateEvicted, kStreamObserver);
        event.at = static_cast<double>(day) + 1.0;
        event.with_values(static_cast<std::int64_t>(evicted), static_cast<std::int64_t>(i));
        trace_->emit(std::move(event));
      }
    }
  }

  peak_total_bytes_ = std::max(peak_total_bytes_, bytes_held());
  ++front_.days_flushed;
  last_flushed_day_ = day;
}

void StreamDetector::maybe_checkpoint(const CheckpointSink& sink) {
  if (!sink || config_.checkpoint_every_days <= 0) return;
  if (last_flushed_day_ < 0) return;
  if (last_flushed_day_ - last_checkpoint_day_ < config_.checkpoint_every_days) return;
  // Stamp first: the checkpoint then records itself as the latest one, so
  // a restored run does not immediately re-checkpoint the same day.
  last_checkpoint_day_ = last_flushed_day_;
  sink(*this, last_flushed_day_);
}

void StreamDetector::run(UpdateFeed& feed, const CheckpointSink& sink) {
  while (auto u = feed.next()) {
    ingest(std::move(*u));
    maybe_checkpoint(sink);
  }
  flush_all();
  finish();
}

void StreamDetector::finish() {
  MOAS_REQUIRE(!finished_, "detector already finished");
  MOAS_REQUIRE(buffered_.empty(), "finish with buffered days (call flush_all)");
  const double at = static_cast<double>(last_flushed_day_ + 1);
  pool().parallel_for(shards_.size(), [&](const std::size_t i) { shards_[i].finish(at); });
  peak_total_bytes_ = std::max(peak_total_bytes_, bytes_held());
  finished_ = true;
}

std::uint64_t StreamDetector::bytes_held() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard.bytes_held();
  return total;
}

std::vector<core::MoasAlarm> StreamDetector::merged_alarms() const {
  std::vector<core::MoasAlarm> out;
  for (const auto& shard : shards_) {
    out.insert(out.end(), shard.alarms().alarms().begin(), shard.alarms().alarms().end());
  }
  std::sort(out.begin(), out.end(), [](const core::MoasAlarm& a, const core::MoasAlarm& b) {
    return a.at != b.at ? a.at < b.at : a.prefix < b.prefix;
  });
  return out;
}

std::string StreamDetector::alarm_log_text() const {
  std::string out = "# stream alarm log\n";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const core::AlarmLog& log = shards_[i].alarms();
    out += "# shard " + std::to_string(i) + ": total " + std::to_string(log.size()) +
           " compacted " + std::to_string(log.compacted()) + "\n";
    std::size_t id = log.first_retained();
    for (const auto& alarm : log.alarms()) {
      out += std::to_string(id++);
      out += ' ';
      out += core::to_string(alarm.state);
      out += " at=" + util::fmt_double(alarm.at, 6);
      out += " settled=" + util::fmt_double(alarm.settled_at, 6);
      out += ' ' + alarm.to_string() + '\n';
    }
  }
  return out;
}

obs::MetricsRegistry StreamDetector::metrics() const {
  obs::MetricsRegistry reg;
  reg.count("stream.delivered", front_.delivered);
  reg.count("stream.malformed_rejected", front_.malformed_rejected);
  reg.count("stream.duplicates_suppressed", front_.duplicates_suppressed);
  reg.count("stream.late_updates", front_.late_updates);
  reg.count("stream.gap_days", front_.gap_days);
  reg.count("stream.days_flushed", front_.days_flushed);

  ShardCounters total;
  std::size_t live = 0;
  std::size_t open = 0;
  std::size_t alarms = 0;
  for (const auto& shard : shards_) {
    const ShardCounters& c = shard.counters();
    total.processed += c.processed;
    total.shed_updates += c.shed_updates;
    total.moas_days_shed += c.moas_days_shed;
    total.alarms_raised += c.alarms_raised;
    total.alarms_resolved += c.alarms_resolved;
    total.alarms_expired += c.alarms_expired;
    total.alarms_parked += c.alarms_parked;
    total.evicted_prefixes += c.evicted_prefixes;
    total.evicted_live += c.evicted_live;
    live += shard.live_prefixes();
    open += shard.open_alarms();
    alarms += shard.alarms().size();
  }
  reg.count("stream.updates_processed", total.processed);
  reg.count("stream.shed_updates", total.shed_updates);
  reg.count("stream.moas_days_shed", total.moas_days_shed);
  reg.count("stream.alarms_raised", total.alarms_raised);
  reg.count("stream.alarms_resolved", total.alarms_resolved);
  reg.count("stream.alarms_expired", total.alarms_expired);
  reg.count("stream.alarms_parked", total.alarms_parked);
  reg.count("stream.evicted_prefixes", total.evicted_prefixes);
  reg.count("stream.evicted_live", total.evicted_live);
  reg.count("stream.alarms_total", alarms);

  reg.set_gauge("stream.bytes_held", static_cast<double>(bytes_held()));
  reg.set_gauge("stream.peak_bytes_held", static_cast<double>(peak_total_bytes_));
  reg.set_gauge("stream.live_prefixes", static_cast<double>(live));
  reg.set_gauge("stream.open_alarms", static_cast<double>(open));

  auto& durations = reg.histogram("stream.case_duration_days", duration_spec());
  auto& latencies = reg.histogram("detector.first_alarm_latency", latency_spec());
  for (const auto& shard : shards_) {
    durations.merge(shard.duration_histogram());
    latencies.merge(shard.latency_histogram());
  }
  return reg;
}

void StreamDetector::save_checkpoint(std::ostream& os) const {
  MOAS_REQUIRE(!finished_, "a finished detector has nothing to resume");
  CheckpointWriter w(os);

  w.line("config")
      .u64(config_.shards)
      .i64(config_.flush_margin)
      .u64(kDupWindow)
      .f64(kConflictTtlDays)
      .u64(config_.shard.day_capacity)
      .u64(config_.shard.memory_budget_bytes)
      .i64(config_.shard.evict_idle_days)
      .u64(config_.shard.alarm_retention);
  w.line("front").u64(consumed_).i64(last_flushed_day_).i64(last_checkpoint_day_);
  w.line("fcounters")
      .u64(front_.delivered)
      .u64(front_.malformed_rejected)
      .u64(front_.duplicates_suppressed)
      .u64(front_.late_updates)
      .u64(front_.gap_days)
      .u64(front_.days_flushed);
  w.line("peak").u64(peak_total_bytes_);

  w.line("dup").u64(dup_order_.size());
  for (const std::uint64_t seq : dup_order_) w.u64(seq);

  w.line("buffered").u64(buffered_.size());
  for (const auto& [day, batch] : buffered_) {
    const auto later = later_counts_.find(day);
    MOAS_ENSURE(later != later_counts_.end(), "buffered day without a later-count");
    w.line("bday").i64(day).u64(later->second).u64(batch.size());
    for (const StreamUpdate& u : batch) {
      w.line("u").u64(u.seq).i64(u.day).f64(u.at).prefix(u.prefix).asn_set(u.origins);
    }
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    w.line("shard").u64(i);
    shards_[i].save(w);
  }
  w.line("end");
  w.finish();
}

StreamDetector StreamDetector::restore_checkpoint(std::istream& is, StreamConfig config) {
  CheckpointReader r(is);
  StreamDetector d(std::move(config));

  {
    LineParser p(r.next());
    p.expect("config");
    MOAS_REQUIRE(p.u64() == d.config_.shards, "checkpoint: shard count mismatch");
    MOAS_REQUIRE(p.i64() == d.config_.flush_margin, "checkpoint: flush margin mismatch");
    MOAS_REQUIRE(p.u64() == kDupWindow, "checkpoint: dup window mismatch");
    MOAS_REQUIRE(p.f64() == kConflictTtlDays, "checkpoint: conflict TTL mismatch");
    MOAS_REQUIRE(p.u64() == d.config_.shard.day_capacity, "checkpoint: day capacity mismatch");
    MOAS_REQUIRE(p.u64() == d.config_.shard.memory_budget_bytes,
                 "checkpoint: memory budget mismatch");
    MOAS_REQUIRE(p.i64() == d.config_.shard.evict_idle_days, "checkpoint: idle window mismatch");
    MOAS_REQUIRE(p.u64() == d.config_.shard.alarm_retention,
                 "checkpoint: alarm retention mismatch");
  }
  {
    LineParser p(r.next());
    p.expect("front");
    d.consumed_ = p.u64();
    d.last_flushed_day_ = p.day();
    d.last_checkpoint_day_ = p.day();
  }
  {
    LineParser p(r.next());
    p.expect("fcounters");
    d.front_.delivered = p.u64();
    d.front_.malformed_rejected = p.u64();
    d.front_.duplicates_suppressed = p.u64();
    d.front_.late_updates = p.u64();
    d.front_.gap_days = p.u64();
    d.front_.days_flushed = p.u64();
  }
  {
    LineParser p(r.next());
    p.expect("peak");
    d.peak_total_bytes_ = p.u64();
  }
  {
    LineParser p(r.next());
    p.expect("dup");
    const std::uint64_t n = p.u64();
    MOAS_REQUIRE(n <= kDupWindow, "checkpoint: dup list exceeds the window");
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t seq = p.u64();
      d.dup_order_.push_back(seq);
      d.dup_seen_.insert(seq);
    }
  }
  {
    LineParser p(r.next());
    p.expect("buffered");
    const std::uint64_t days = p.line_count(r);
    for (std::uint64_t i = 0; i < days; ++i) {
      LineParser h(r.next());
      h.expect("bday");
      const int day = h.day();
      const std::uint64_t later = h.u64();
      const std::uint64_t n = h.line_count(r);
      d.later_counts_[day] = later;
      auto& batch = d.buffered_[day];
      batch.reserve(n);
      for (std::uint64_t j = 0; j < n; ++j) {
        LineParser up(r.next());
        up.expect("u");
        StreamUpdate u;
        u.seq = up.u64();
        u.day = up.day();
        u.at = up.f64();
        const auto prefix = net::Prefix::parse(up.token());
        MOAS_REQUIRE(prefix.has_value(), "checkpoint: bad prefix");
        u.prefix = *prefix;
        const std::uint64_t origins = up.u64();
        for (std::uint64_t k = 0; k < origins; ++k) {
          u.origins.insert(static_cast<bgp::Asn>(up.u64()));
        }
        batch.push_back(std::move(u));
      }
    }
  }
  for (std::size_t i = 0; i < d.shards_.size(); ++i) {
    LineParser p(r.next());
    p.expect("shard");
    MOAS_REQUIRE(p.u64() == i, "checkpoint: shard index out of order");
    d.shards_[i].load(r);
  }
  {
    LineParser p(r.next());
    p.expect("end");
  }
  return d;
}

bool StreamDetector::operator==(const StreamDetector& other) const {
  return config_.shards == other.config_.shards &&
         config_.flush_margin == other.config_.flush_margin &&
         config_.shard == other.config_.shard && shards_ == other.shards_ &&
         consumed_ == other.consumed_ && last_flushed_day_ == other.last_flushed_day_ &&
         last_checkpoint_day_ == other.last_checkpoint_day_ &&
         finished_ == other.finished_ && front_ == other.front_ &&
         peak_total_bytes_ == other.peak_total_bytes_ && buffered_ == other.buffered_ &&
         later_counts_ == other.later_counts_ && dup_order_ == other.dup_order_;
}

}  // namespace moas::stream
