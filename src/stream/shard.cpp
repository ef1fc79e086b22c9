#include "moas/stream/shard.h"

#include <algorithm>
#include <functional>

#include "moas/util/assert.h"

namespace moas::stream {

namespace {

/// Deterministic footprint estimates (bytes). These are accounting units,
/// not allocator truth: the budget gate needs a number that is identical on
/// every platform and --jobs value, so we charge flat per-object costs plus
/// a per-ASN cost for the origin sets.
constexpr std::uint64_t kShardBaseBytes = 256;
constexpr std::uint64_t kMapNodeBytes = 64;
// Per origin-set member, sized as a std::set node when each state owned its
// sets. A state now holds two handles onto sets shared through the
// MoasList pool, so this charges storage the shard no longer owns; it stays
// until the fingerprint can move (ROADMAP item 6), since changing it moves
// evictions.
constexpr std::uint64_t kAsnBytes = 48;
constexpr std::uint64_t kGapBytes = 16;

/// One prefix entry: its map node plus the state.
std::uint64_t state_bytes(const PrefixState& st) {
  return kMapNodeBytes + 96 +
         kAsnBytes *
             static_cast<std::uint64_t>(st.reference.set().size() + st.observed.set().size());
}

std::uint64_t alarm_bytes(const core::MoasAlarm& a) {
  return 160 + kAsnBytes * static_cast<std::uint64_t>(a.reference_list.size() +
                                                      a.observed_list.size() +
                                                      a.offending_origins.size());
}

/// observed introduces no origin outside the reference list. Equal sets
/// are one handle, so the common case is a pointer compare.
bool covered_by(const core::MoasList reference, const core::MoasList observed) {
  if (reference == observed) return true;
  const bgp::AsnSet& r = reference.set();
  const bgp::AsnSet& o = observed.set();
  return std::includes(r.begin(), r.end(), o.begin(), o.end());
}

/// durations/latencies <underflow> <overflow> <count> <sum> <min> <max>
/// <bucket counts...>
template <typename IO, typename Histogram>
void histogram_record(IO& io, const char* tag, Histogram& h) {
  obs::FixedHistogram::fields(h, [&](auto& underflow, auto& overflow, auto& count, auto& sum,
                                     auto& min, auto& max, auto& buckets) {
    io.line(tag).u64(underflow).u64(overflow).u64(count).f64(sum).f64(min).f64(max);
    for (auto& c : buckets) io.u64(c);
  });
}

}  // namespace

obs::HistogramSpec duration_spec() { return obs::HistogramSpec{0.0, 1.0, 64}; }
obs::HistogramSpec latency_spec() { return obs::HistogramSpec{0.0, 0.25, 120}; }

DetectorShard::DetectorShard(ShardConfig config)
    : config_(config),
      durations_(duration_spec()),
      latencies_(latency_spec()),
      bytes_held_(kShardBaseBytes),
      peak_bytes_(kShardBaseBytes) {
  MOAS_REQUIRE(config.evict_idle_days >= 0, "idle window must be non-negative");
  log_.set_retention(config.alarm_retention);
}

void DetectorShard::process(const int flush_day, const StreamUpdate& u, PrefixState& st,
                            const bool fresh, const bool full) {
  const std::uint64_t before = fresh ? 0 : state_bytes(st);
  if (fresh) {
    st.reference = u.origins;  // first sight: adopt as the MOAS list
    st.first_day = u.day;
  }

  if (!covered_by(st.reference, u.origins)) {
    st.observed = u.origins;
    if (st.alarm_id < 0) {
      core::MoasAlarm alarm;
      alarm.at = u.at;
      alarm.observer = kStreamObserver;
      alarm.prefix = u.prefix;
      alarm.reference_list = st.reference.set();
      alarm.observed_list = u.origins.set();
      for (const bgp::Asn asn : u.origins.set()) {
        if (!st.reference.set().contains(asn)) alarm.offending_origins.insert(asn);
      }
      alarm.cause = core::MoasAlarm::Cause::ListMismatch;
      const std::uint64_t cost = alarm_bytes(alarm);
      const std::size_t id =
          log_.record(std::move(alarm), [this](const core::MoasAlarm& folded) {
            bytes_held_ -= alarm_bytes(folded);
          });
      bytes_held_ += cost;
      st.alarm_id = static_cast<std::int64_t>(id);
      st.conflict_since = u.at;
      st.conflict_day = u.day;
      ttl_index_.emplace(u.day, u.prefix);
      ++counters_.alarms_raised;
      latencies_.add(static_cast<double>(flush_day) + 1.0 - u.at);

      // Did the feed skip days between our last sighting and this one? The
      // conflict may have started unseen inside the gap — park the alarm as
      // Pending instead of asserting a fresh hijack story.
      const int unseen_from = st.last_day + 1;
      const int unseen_to = u.day - 1;
      if (unseen_from <= unseen_to) {
        for (const auto& g : gaps_) {
          if (g.first_day <= unseen_to && g.last_day >= unseen_from) {
            log_.settle(id, core::MoasAlarm::State::Pending, u.at);
            ++counters_.alarms_parked;
            break;
          }
        }
      }
    }
  } else if (st.alarm_id >= 0) {
    // The announced set is covered by the reference again: conflict over.
    close_alarm(u.prefix, st, core::MoasAlarm::State::Resolved, u.at);
    st.observed = {};
  }

  const std::size_t origins = u.origins.set().size();
  const bool accrues = origins >= 2 && u.day > st.last_moas_day;
  if (full) {
    ++counters_.processed;
    if (accrues) {
      ++st.duration_days;
      st.last_moas_day = u.day;
    }
    st.max_origins = std::max(st.max_origins, origins);
  } else {
    ++counters_.shed_updates;
    if (accrues) ++counters_.moas_days_shed;
  }
  st.last_day = std::max(st.last_day, u.day);
  bytes_held_ = bytes_held_ + state_bytes(st) - before;
}

void DetectorShard::close_alarm(const net::Prefix& prefix, PrefixState& st,
                                const core::MoasAlarm::State state, const double at) {
  log_.settle(static_cast<std::size_t>(st.alarm_id), state, at);
  ++(state == core::MoasAlarm::State::Resolved ? counters_.alarms_resolved
                                                : counters_.alarms_expired);
  ttl_index_.erase({st.conflict_day, prefix});
  st.alarm_id = -1;
  st.conflict_since = -1.0;
  st.conflict_day = -1;
}

void DetectorShard::process_day(const int day, const std::vector<chaos::GapWindow>& new_gaps,
                                const std::vector<const StreamUpdate*>& batch) {
  gaps_.insert(gaps_.end(), new_gaps.begin(), new_gaps.end());
  bytes_held_ += kGapBytes * new_gaps.size();

  std::size_t full_used = 0;
  for (const StreamUpdate* u : batch) {
    MOAS_REQUIRE(!u->malformed, "malformed update reached a shard");
    const auto [it, fresh] = states_.try_emplace(u->prefix);
    const bool alarm_open = it->second.alarm_id >= 0;
    // Admission control: alarm-carrying prefixes always get the full path;
    // everyone else does until the day's capacity runs out.
    const bool full =
        alarm_open || config_.day_capacity == 0 || full_used < config_.day_capacity;
    if (full && !alarm_open) ++full_used;
    process(day, *u, it->second, fresh, full);
  }
  end_day(day);
}

void DetectorShard::end_day(const int day) {
  // Conflict TTL: an alarm open this long is churn, not attack. Expire it
  // and adopt the observed origins so the prefix stops alarming. The index
  // is oldest conflict first, so the walk stops at the first young one.
  while (!ttl_index_.empty()) {
    const auto [conflict_day, prefix] = *ttl_index_.begin();
    if (static_cast<double>(day - conflict_day) < kConflictTtlDays) break;
    PrefixState& st = states_.find(prefix)->second;
    const std::uint64_t before = state_bytes(st);
    close_alarm(prefix, st, core::MoasAlarm::State::Expired, static_cast<double>(day) + 1.0);
    bgp::AsnSet adopted = st.reference.set();
    adopted.insert(st.observed.set().begin(), st.observed.set().end());
    st.reference = core::MoasList::of(adopted);
    st.observed = {};
    bytes_held_ = bytes_held_ + state_bytes(st) - before;
  }

  if (config_.memory_budget_bytes > 0 && bytes_held_ > config_.memory_budget_bytes) evict(day);
  peak_bytes_ = std::max(peak_bytes_, bytes_held_);
}

void DetectorShard::evict(const int day) {
  // Two passes over alarm-free prefixes, coldest first: idle ones, then
  // (under sustained pressure) warm ones too. A candidate is (last_day,
  // position); positions follow prefix order, so candidates order as
  // (last_day, prefix) do. Each pass pops a min-heap, so only the victims
  // are ever put in order.
  using Candidate = std::pair<int, std::size_t>;
  std::vector<Candidate> idle;
  std::vector<Candidate> warm;
  std::size_t position = 0;
  for (const auto& [prefix, st] : states_) {
    if (st.alarm_id < 0) {
      auto& bucket = (day - st.last_day >= config_.evict_idle_days) ? idle : warm;
      bucket.emplace_back(st.last_day, position);
    }
    ++position;
  }

  std::vector<bool> victim(states_.size(), false);
  const auto evict_from = [&](std::vector<Candidate>& order, const bool live) {
    std::make_heap(order.begin(), order.end(), std::greater<>{});
    for (auto end = order.end(); end != order.begin(); --end) {
      if (bytes_held_ <= config_.memory_budget_bytes) return;
      std::pop_heap(order.begin(), end, std::greater<>{});
      const std::size_t at = (end - 1)->second;
      const PrefixState& st = (states_.begin() + static_cast<std::ptrdiff_t>(at))->second;
      if (st.duration_days > 0) durations_.add(static_cast<double>(st.duration_days));
      bytes_held_ -= state_bytes(st);
      ++counters_.evicted_prefixes;
      if (live) ++counters_.evicted_live;
      victim[at] = true;
    }
  };
  evict_from(idle, false);
  evict_from(warm, true);

  // One compaction pass; erase_if visits the entries in order.
  position = 0;
  states_.erase_if([&](const auto&) { return victim[position++]; });
}

void DetectorShard::finish(const double at) {
  while (!ttl_index_.empty()) {
    const net::Prefix prefix = ttl_index_.begin()->second;
    close_alarm(prefix, states_.find(prefix)->second, core::MoasAlarm::State::Expired, at);
  }
  MOAS_ENSURE(bytes_held_ == recompute_bytes(), "running byte count drifted from the footprint");
  peak_bytes_ = std::max(peak_bytes_, bytes_held_);
}

std::uint64_t DetectorShard::recompute_bytes() const {
  std::uint64_t bytes = kShardBaseBytes + kGapBytes * static_cast<std::uint64_t>(gaps_.size());
  for (const auto& [prefix, st] : states_) bytes += state_bytes(st);
  for (const auto& alarm : log_.alarms()) bytes += alarm_bytes(alarm);
  return bytes;
}

obs::FixedHistogram DetectorShard::duration_histogram() const {
  obs::FixedHistogram out = durations_;
  for (const auto& [prefix, st] : states_) {
    if (st.duration_days > 0) out.add(static_cast<double>(st.duration_days));
  }
  return out;
}

/// The alarm log's own fields: the first retained id and the compaction
/// tallies. save() copies them out of the log; load() seeds a fresh log
/// with them.
struct DetectorShard::LogHead {
  std::size_t base = 0;
  std::array<std::uint64_t, 4> by_state{};
  std::array<std::uint64_t, 3> by_cause{};
};

template <typename IO, typename Shard, typename Alarms>
void DetectorShard::describe(IO& io, Shard& s, LogHead& head, Alarms& alarms) {
  auto& c = s.counters_;
  io.line("counters")
      .u64(c.processed)
      .u64(c.shed_updates)
      .u64(c.moas_days_shed)
      .u64(c.alarms_raised)
      .u64(c.alarms_resolved)
      .u64(c.alarms_expired)
      .u64(c.alarms_parked)
      .u64(c.evicted_prefixes)
      .u64(c.evicted_live);
  io.line("bytes").u64(s.bytes_held_).u64(s.peak_bytes_);

  io.line("gaps").list(s.gaps_, [&](auto& g) {
    io.line("gap").day(g.first_day).day(g.last_day);
  });

  histogram_record(io, "durations", s.durations_);
  histogram_record(io, "latencies", s.latencies_);

  io.line("alarmlog").u64(head.base);
  for (auto& v : head.by_state) io.u64(v);
  for (auto& v : head.by_cause) io.u64(v);
  io.list(alarms, [&](auto& a) {
    io.line("alarm")
        .f64(a.at)
        .f64(a.settled_at)
        .u64(a.observer)
        .enumeration(a.cause, core::MoasAlarm::Cause::BannedOriginSeen, "alarm cause")
        .enumeration(a.state, core::MoasAlarm::State::Expired, "alarm state")
        .prefix(a.prefix)
        .asn_set(a.reference_list)
        .asn_set(a.observed_list)
        .asn_set(a.offending_origins);
  });

  io.line("states").list(s.states_, [&](auto& entry) {
    auto& st = entry.second;
    io.line("state")
        .prefix(entry.first)
        .day(st.first_day)
        .day(st.last_day)
        .day(st.last_moas_day)
        .day(st.duration_days)
        .u64(st.max_origins)
        .i64(st.alarm_id)
        .f64(st.conflict_since)
        .day(st.conflict_day)
        .asn_set(st.reference)
        .asn_set(st.observed);
  });
}

void DetectorShard::save(CheckpointWriter& w) const {
  // Each state line reads its reference set two dependent loads away (the
  // pool entry, then its members), and formatting a line takes too long
  // for the core to overlap one state's misses with the next one's. This
  // tight pass overlaps them: the walk then finds the sets in cache.
  for (const auto& [prefix, st] : states_) {
    const bgp::AsnSet& reference = st.reference.set();
    if (!reference.empty()) __builtin_prefetch(&*reference.begin());
  }
  LogHead head{log_.first_retained(), log_.compacted_by_state(), log_.compacted_by_cause()};
  describe(w, *this, head, log_.alarms());
}

void DetectorShard::load(CheckpointReader& r) {
  MOAS_REQUIRE(states_.empty() && log_.empty(), "shard restore needs a fresh shard");
  LogHead head;
  std::vector<core::MoasAlarm> alarms;
  describe(r, *this, head, alarms);
  MOAS_REQUIRE(durations_.counts_add_up() && latencies_.counts_add_up(),
               "checkpoint: histogram counts do not add up");
  log_.restore_compacted(head.base, head.by_state, head.by_cause);
  for (core::MoasAlarm& alarm : alarms) log_.record(std::move(alarm));

  // Open alarms and the states naming them must pair up one to one: a
  // dangling id only surfaces later, when a shard worker settles it. An
  // alarm's conflict day is set and cleared with its id, and it places the
  // alarm in the TTL index.
  const auto base = static_cast<std::int64_t>(log_.first_retained());
  const auto is_open = [](const core::MoasAlarm& a) {
    return a.state == core::MoasAlarm::State::Raised ||
           a.state == core::MoasAlarm::State::Pending;
  };
  for (const auto& [prefix, st] : states_) {
    if (st.alarm_id == -1) {
      MOAS_REQUIRE(st.conflict_day == -1, "checkpoint: conflict day on a state with no alarm");
      continue;
    }
    MOAS_REQUIRE(st.alarm_id >= base && st.alarm_id < static_cast<std::int64_t>(log_.size()),
                 "checkpoint: state names no retained alarm");
    const core::MoasAlarm& alarm = log_.alarms()[static_cast<std::size_t>(st.alarm_id - base)];
    MOAS_REQUIRE(is_open(alarm) && alarm.prefix == prefix,
                 "checkpoint: state names a settled or foreign alarm");
    MOAS_REQUIRE(st.conflict_day >= 0 && st.conflict_day <= st.last_day,
                 "checkpoint: open alarm's conflict day outside [0, last_day]");
    ttl_index_.emplace(st.conflict_day, prefix);
  }
  MOAS_REQUIRE(ttl_index_.size() == static_cast<std::size_t>(std::count_if(
                                        log_.alarms().begin(), log_.alarms().end(), is_open)),
               "checkpoint: open alarm named by no state");

  // The running byte count is never recomputed after this, so a wrong one
  // would stay wrong for the rest of the run.
  MOAS_REQUIRE(bytes_held_ == recompute_bytes(),
               "checkpoint: byte count differs from the restored footprint");
}

}  // namespace moas::stream
