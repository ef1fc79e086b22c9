#include "moas/stream/detector.h"

#include <algorithm>
#include <atomic>
#include <istream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "moas/stream/checkpoint.h"
#include "moas/util/assert.h"
#include "moas/util/strings.h"

namespace moas::stream {

StreamDetector::StreamDetector(StreamConfig config) : config_(std::move(config)) {
  MOAS_REQUIRE(config_.shards > 0, "need at least one shard");
  MOAS_REQUIRE(config_.flush_margin > 0, "flush margin must be positive");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) shards_.emplace_back(config_.shard);
}

util::ThreadPool& StreamDetector::pool() const {
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
  if (!dup_seen_.insert(u.seq)) {
    ++front_.duplicates_suppressed;
    return;
  }
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
  for (auto it = open_days_.begin(); it != open_days_.end() && it->first < key; ++it) {
    ++it->second.later;
  }
  open_days_[key].batch.push_back(std::move(u));
  flush_open_days(false);
}

void StreamDetector::flush_all() {
  MOAS_REQUIRE(!finished_, "detector already finished");
  flush_open_days(true);
}

void StreamDetector::flush_open_days(const bool all) {
  const auto margin = static_cast<std::uint64_t>(config_.flush_margin);
  while (!open_days_.empty() && (all || open_days_.begin()->second.later > margin)) {
    auto oldest = open_days_.extract(open_days_.begin());
    flush_day(oldest.key(), std::move(oldest.mapped().batch));
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
  MOAS_REQUIRE(open_days_.empty(), "finish with buffered days (call flush_all)");
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

template <typename IO, typename Detector>
void StreamDetector::describe_front(IO& io, Detector& d) {
  const StreamConfig& c = d.config_;
  io.line("config")
      .match(c.shards, "shard count")
      .match(c.flush_margin, "flush margin")
      .match(kDupWindow, "dup window")
      .match(kConflictTtlDays, "conflict TTL")
      .match(c.shard.day_capacity, "day capacity")
      .match(c.shard.memory_budget_bytes, "memory budget")
      .match(c.shard.evict_idle_days, "idle window")
      .match(c.shard.alarm_retention, "alarm retention");
  io.line("front").u64(d.consumed_).day(d.last_flushed_day_).day(d.last_checkpoint_day_);
  auto& f = d.front_;
  io.line("fcounters")
      .u64(f.delivered)
      .u64(f.malformed_rejected)
      .u64(f.duplicates_suppressed)
      .u64(f.late_updates)
      .u64(f.gap_days)
      .u64(f.days_flushed);
  io.line("peak").u64(d.peak_total_bytes_);

  io.line("dup").list(d.dup_order_, kDupWindow, [&](auto& seq) { io.u64(seq); });

  io.line("buffered").list(d.open_days_, [&](auto& entry) {
    auto& open = entry.second;
    io.line("bday").day(entry.first).u64(open.later).list(open.batch, [&](auto& u) {
      io.line("u").u64(u.seq).day(u.day).f64(u.at).prefix(u.prefix).asn_set(u.origins);
    });
  });
}

template <typename IO, typename Shard>
void StreamDetector::describe_shard(IO& io, const std::size_t i, Shard& shard) {
  io.line("shard").match(i, "shard index");
  if constexpr (std::is_const_v<Shard>) {
    shard.save(io);
  } else {
    shard.load(io);
  }
}

void StreamDetector::write_image(std::ostream& os) const {
  // Each shard's section is formatted on the pool into a writer of its
  // own, the front end's here. This thread then hashes and writes the
  // sections in shard order, each as soon as it is ready, while the
  // workers still format later ones.
  enum : int { kPending, kReady, kFailed };
  // The section buffers are allocated here, on the saving thread, with
  // room enough that a worker seldom grows one: what a worker allocates
  // stays on its own malloc arena, which raised peak RSS by several MiB.
  // A state line takes about 74 bytes on the paper trace, an alarm line
  // about 100.
  constexpr std::size_t kBytesPerState = 96;
  constexpr std::size_t kBytesPerAlarm = 128;
  constexpr std::size_t kBytesPerShard = 4096;
  std::vector<CheckpointWriter> sections;
  sections.reserve(shards_.size());
  for (const DetectorShard& shard : shards_) {
    sections.emplace_back(kBytesPerShard + kBytesPerState * shard.live_prefixes() +
                          kBytesPerAlarm * shard.alarms().alarms().size());
  }
  std::vector<std::atomic<int>> states(shards_.size());
  util::ThreadPool& workers = pool();
  try {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      workers.submit([this, &sections, &states, i] {
        // A failed section is published too, so this thread never waits
        // for one that will not come; the pool keeps the error for wait().
        int outcome = kFailed;
        try {
          describe_shard(sections[i], i, shards_[i]);
          outcome = kReady;
        } catch (...) {
          states[i].store(outcome, std::memory_order_release);
          states[i].notify_one();
          throw;
        }
        states[i].store(outcome, std::memory_order_release);
        states[i].notify_one();
      });
    }
    CheckpointImage image(os);
    CheckpointWriter front;
    describe_front(front, *this);
    image.append(front);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      states[i].wait(kPending, std::memory_order_acquire);
      if (states[i].load(std::memory_order_acquire) != kReady) break;
      image.append(sections[i]);
    }
    workers.wait();  // rethrows a section's error
    CheckpointWriter end(8);
    end.line("end");
    image.append(end);
    image.seal();
  } catch (...) {
    // The tasks use this frame: let them finish before it unwinds. An
    // error of theirs then replaces this one.
    workers.wait();
    throw;
  }
}

void StreamDetector::save_checkpoint(std::ostream& os) const {
  MOAS_REQUIRE(!finished_, "a finished detector has nothing to resume");
  write_image(os);
}

StreamDetector StreamDetector::restore_checkpoint(std::istream& is, StreamConfig config) {
  CheckpointReader r(is);
  StreamDetector d(std::move(config));
  describe_front(r, d);
  for (std::size_t i = 0; i < d.shards_.size(); ++i) describe_shard(r, i, d.shards_[i]);
  r.line("end");
  // A live window never holds a seq twice; a repeat would leave the table
  // one member short of the FIFO, and the later erase would miss.
  for (const std::uint64_t seq : d.dup_order_) {
    MOAS_REQUIRE(d.dup_seen_.insert(seq), "checkpoint: repeated seq in the dedup window");
  }
  return d;
}

bool StreamDetector::SeqTable::insert(const std::uint64_t seq) {
  std::size_t i = home(seq);
  for (; slots_[i].used; i = (i + 1) & (kSlots - 1)) {
    if (slots_[i].seq == seq) return false;
  }
  slots_[i] = Slot{seq, true};
  return true;
}

void StreamDetector::SeqTable::erase(const std::uint64_t seq) {
  std::size_t hole = home(seq);
  while (!slots_[hole].used || slots_[hole].seq != seq) {
    MOAS_ENSURE(slots_[hole].used, "dedup table erase of an absent seq");
    hole = (hole + 1) & (kSlots - 1);
  }
  // Backward shift: pull each later member of the probe run into the hole
  // unless that would move it before its home slot.
  for (std::size_t next = (hole + 1) & (kSlots - 1); slots_[next].used;
       next = (next + 1) & (kSlots - 1)) {
    const std::size_t from_home = (next - home(slots_[next].seq)) & (kSlots - 1);
    if (from_home >= ((next - hole) & (kSlots - 1))) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].used = false;
}

bool StreamDetector::operator==(const StreamDetector& other) const {
  std::ostringstream mine;
  std::ostringstream theirs;
  write_image(mine);
  other.write_image(theirs);
  return finished_ == other.finished_ && mine.str() == theirs.str();
}

}  // namespace moas::stream
