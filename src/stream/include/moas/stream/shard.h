// One shard of the streaming detector: the MOAS-list state, alarm log, and
// robustness policies for the slice of the prefix space hashed to it.
//
// Shards are the unit of parallelism. Each owns a disjoint set of prefixes,
// so the pool can run all shards of one day batch concurrently with no
// shared mutable state; every decision a shard makes (shedding, eviction,
// TTL expiry) depends only on its own deterministic state and the batch
// contents, which is what makes results byte-identical across --jobs.
//
// Robustness policies, in the order they act on a day:
//   admission   per-day full-processing capacity; overflow updates are
//               processed summary-only (detection still runs, measurement
//               accrual is shed) — prefixes with an open alarm are always
//               processed fully, so no alarm is ever lost to shedding
//   parking     a mismatch first observed across a feed gap settles the
//               alarm to Pending: the conflict may predate the gap and
//               blaming the first post-gap update would be a false story
//   TTL         a conflict open >= kConflictTtlDays is expired and the
//               observed set adopted as the new reference (long-lived MOAS
//               churn is legitimate multi-homing, not an attack)
//   eviction    when the byte estimate exceeds the budget, cold alarm-free
//               prefix state is folded into the duration histogram and
//               dropped; alarm-carrying state is never evicted
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/chaos/feed_fault.h"
#include "moas/core/alarm.h"
#include "moas/core/moas_list.h"
#include "moas/net/prefix.h"
#include "moas/obs/metrics.h"
#include "moas/stream/checkpoint.h"
#include "moas/stream/update.h"
#include "moas/util/flat_map.h"

namespace moas::stream {

/// The AS number the streaming monitor signs its alarms with (a private-use
/// ASN; the monitor is an observer, not a routing participant).
inline constexpr bgp::Asn kStreamObserver = 64512;

/// Expire-and-adopt horizon for open conflicts, in days.
inline constexpr double kConflictTtlDays = 10.0;

struct ShardConfig {
  /// Per-day cap on fully processed prefixes without an open alarm
  /// (0 = unlimited). Beyond it the shard degrades to summary-only.
  std::size_t day_capacity = 0;
  /// Byte budget for the shard's estimated footprint (0 = unlimited).
  std::uint64_t memory_budget_bytes = 0;
  /// A prefix unseen this many days is cold and evicted first.
  int evict_idle_days = 30;
  /// AlarmLog retention cap (0 = unlimited).
  std::size_t alarm_retention = 0;

  bool operator==(const ShardConfig&) const = default;
};

/// Everything the shard remembers about one prefix. Both origin sets are
/// interned handles, so copying one is a pointer copy.
struct PrefixState {
  core::MoasList reference;  // the adopted MOAS list
  core::MoasList observed;   // last conflicting origin set (empty when clear)
  int first_day = 0;
  int last_day = -1;       // last day an update for the prefix was seen
  int last_moas_day = -1;  // last day duration accrued
  int duration_days = 0;   // paper-definition MOAS duration
  std::size_t max_origins = 0;
  std::int64_t alarm_id = -1;   // open alarm in the shard log (-1 = none)
  double conflict_since = -1.0;
  int conflict_day = -1;
};

struct ShardCounters {
  std::uint64_t processed = 0;         // updates processed fully
  std::uint64_t shed_updates = 0;      // updates degraded to summary-only
  std::uint64_t moas_days_shed = 0;    // duration accruals skipped by shedding
  std::uint64_t alarms_raised = 0;
  std::uint64_t alarms_resolved = 0;
  std::uint64_t alarms_expired = 0;
  std::uint64_t alarms_parked = 0;     // settled to Pending across a feed gap
  std::uint64_t evicted_prefixes = 0;
  std::uint64_t evicted_live = 0;      // evicted while still inside the idle window
};

class DetectorShard {
 public:
  explicit DetectorShard(ShardConfig config);

  /// Process one flushed day batch. `new_gaps` are the feed-gap windows the
  /// front-end detected immediately before this day (usually empty).
  /// Updates must belong to this shard and be sorted by (at, seq).
  void process_day(int day, const std::vector<chaos::GapWindow>& new_gaps,
                   const std::vector<const StreamUpdate*>& batch);

  /// End of stream: expire every still-open alarm at time `at`.
  void finish(double at);

  const core::AlarmLog& alarms() const { return log_; }
  const ShardCounters& counters() const { return counters_; }
  /// The byte estimate, kept as a running count: every change to the
  /// model's inputs (states, origin sets, retained alarms, gap windows)
  /// moves it by its exact delta.
  std::uint64_t bytes_held() const { return bytes_held_; }
  std::uint64_t peak_bytes() const { return peak_bytes_; }
  /// The byte estimate recomputed from scratch. Equals bytes_held() at
  /// every day boundary; finish and restore check it, never end_day.
  std::uint64_t recompute_bytes() const;
  std::size_t live_prefixes() const { return states_.size(); }
  std::size_t open_alarms() const { return ttl_index_.size(); }
  /// The state of `prefix`, or null when the shard holds none.
  const PrefixState* find(const net::Prefix& prefix) const {
    const auto it = states_.find(prefix);
    return it == states_.end() ? nullptr : &it->second;
  }

  /// Evicted case durations plus the live states' current durations.
  obs::FixedHistogram duration_histogram() const;

  /// First-alarm latencies (alarm time minus start of the conflict's first
  /// day) for every alarm raised so far, as a fixed histogram in days.
  const obs::FixedHistogram& latency_histogram() const { return latencies_; }

  void save(CheckpointWriter& w) const;
  /// Restores into a freshly constructed shard with an equal config.
  void load(CheckpointReader& r);

 private:
  struct LogHead;
  /// The shard's checkpoint records, saved from a const shard or restored
  /// into a fresh one. The alarm log goes through `head` and `alarms`.
  template <typename IO, typename Shard, typename Alarms>
  static void describe(IO& io, Shard& s, LogHead& head, Alarms& alarms);

  /// Apply `u` to its prefix's state `st`, which `fresh` says was created
  /// for it.
  void process(int flush_day, const StreamUpdate& u, PrefixState& st, bool fresh, bool full);
  void end_day(int day);
  /// Close the open alarm of `st` (at `prefix`) as `state` at time `at`.
  void close_alarm(const net::Prefix& prefix, PrefixState& st, core::MoasAlarm::State state,
                   double at);

  /// Drop alarm-free states, coldest first, until the footprint fits the
  /// budget. States unseen for evict_idle_days before `day` go first.
  void evict(int day);

  ShardConfig config_;
  /// One sorted vector: a lookup is a binary search over contiguous
  /// entries, and the checkpoint walks it in prefix order.
  util::FlatMap<net::Prefix, PrefixState> states_;
  /// (conflict_day, prefix) of every open alarm, oldest conflict first:
  /// the TTL expires from its front. Derived from states_, so it is not
  /// checkpointed; load() rebuilds it.
  std::set<std::pair<int, net::Prefix>> ttl_index_;
  core::AlarmLog log_;
  std::vector<chaos::GapWindow> gaps_;  // every gap window seen so far
  obs::FixedHistogram durations_;       // evicted/retired case durations
  obs::FixedHistogram latencies_;       // first-alarm latency in days
  ShardCounters counters_;
  std::uint64_t bytes_held_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

/// The histogram spec shared by duration and latency metrics (unit: days).
obs::HistogramSpec duration_spec();
obs::HistogramSpec latency_spec();

}  // namespace moas::stream
