// The long-lived streaming MOAS detector.
//
// Architecture: a strictly serial ingest front-end feeding prefix-hashed
// shards that run in parallel, one flushed day at a time.
//
//   feed -> ingest (dedup, reject malformed, buffer by day)
//        -> flush day d once `flush_margin` later-day updates arrived
//        -> sort batch by (at, seq), slice by shard_of(prefix)
//        -> ThreadPool::parallel_for over shards (disjoint state)
//        -> barrier; front-end emits trace events, updates gauges
//
// A checkpoint formats each shard's section of the image on the pool, and
// the saving thread hashes and writes the sections in shard order.
//
// Every decision that depends on order is made either in the serial
// front-end or inside one shard from its own deterministic state, so the
// whole pipeline — alarms, metrics, checkpoints — is byte-identical for
// any --jobs value. That invariant is what makes crash/restore testable:
// restore a checkpoint, fast-forward the recreated feed chain past
// consumed() updates, run to the end, and the result must equal an
// uninterrupted run bit for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/stream/shard.h"
#include "moas/stream/update.h"
#include "moas/util/thread_pool.h"

namespace moas::stream {

/// Duplicate suppression remembers this many of the latest sequence numbers.
inline constexpr std::size_t kDupWindow = 4096;

struct StreamConfig {
  /// Number of prefix-hash shards (parallelism grain, not thread count).
  std::size_t shards = 8;
  /// Worker threads (0 = ThreadPool::default_jobs()). Not part of the
  /// checkpoint fingerprint: results are identical for any value.
  std::size_t jobs = 0;
  /// Backpressure bound: day d is flushed to the shards once this many
  /// updates of later days have been delivered (the transport's reorder
  /// skew is slots, so a small margin guarantees day completeness), or at
  /// end of feed. Also bounds ingest buffering: at most ~margin updates of
  /// later days sit buffered beyond the open day.
  int flush_margin = 64;
  /// Checkpoint cadence in flushed days (0 = only on demand).
  int checkpoint_every_days = 0;
  ShardConfig shard;

  bool operator==(const StreamConfig&) const = default;
};

/// Ingest-side counters (shard counters live in DetectorShard).
struct FrontCounters {
  std::uint64_t delivered = 0;
  std::uint64_t malformed_rejected = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t late_updates = 0;  // arrived after their day was flushed
  std::uint64_t gap_days = 0;      // feed-dark days detected
  std::uint64_t days_flushed = 0;
};

class StreamDetector {
 public:
  explicit StreamDetector(StreamConfig config);

  StreamDetector(StreamDetector&&) = default;
  StreamDetector& operator=(StreamDetector&&) = default;

  /// Called at each checkpoint boundary with the detector quiesced (all
  /// flushed days fully processed) and the just-flushed day.
  using CheckpointSink = std::function<void(const StreamDetector&, int day)>;

  /// Consume the whole feed, then finish(). `sink` (optional) fires every
  /// checkpoint_every_days flushed days.
  void run(UpdateFeed& feed, const CheckpointSink& sink = {});

  /// Incremental front-end (what run() loops over): deliver one update.
  void ingest(StreamUpdate u);
  /// Flush every buffered day regardless of margin.
  void flush_all();
  /// Expire remaining open alarms; the detector is read-only afterwards.
  void finish();

  const StreamConfig& config() const { return config_; }
  std::uint64_t consumed() const { return consumed_; }
  int last_flushed_day() const { return last_flushed_day_; }
  bool finished() const { return finished_; }
  const FrontCounters& front_counters() const { return front_; }
  const std::vector<DetectorShard>& shards() const { return shards_; }

  /// All retained alarms across shards, sorted by (at, prefix).
  std::vector<core::MoasAlarm> merged_alarms() const;

  /// Canonical human-readable log; byte-identical for equal detectors.
  std::string alarm_log_text() const;

  /// stream.* counters and gauges plus the duration/latency histograms.
  obs::MetricsRegistry metrics() const;

  /// Aggregate footprint across shards (accounting bytes, post-compaction).
  std::uint64_t bytes_held() const;
  std::uint64_t peak_bytes() const { return peak_total_bytes_; }

  /// Writes the checkpoint image. It formats on the detector's pool, so
  /// no other thread may use the detector meanwhile, not even to save.
  void save_checkpoint(std::ostream& os) const;
  /// Rebuild from a checkpoint. `config` must match the checkpointed
  /// structural fields (shards, margins, shard policy); jobs and
  /// checkpoint cadence are runtime choices and may differ. The caller
  /// fast-forwards the feed chain past consumed() updates and resumes with
  /// run(). Throws std::invalid_argument on damage or config mismatch.
  static StreamDetector restore_checkpoint(std::istream& is, StreamConfig config);

  /// Attach the trace bus (events are emitted from the serial front-end
  /// only, post-barrier, so the non-thread-safe bus is safe here).
  void set_trace(obs::TraceBus* bus) { trace_ = bus; }

  std::size_t shard_of(const net::Prefix& prefix) const {
    return static_cast<std::size_t>(mix64(prefix_key(prefix)) %
                                    static_cast<std::uint64_t>(shards_.size()));
  }

  /// Equal checkpoint images (and both finished or both not).
  bool operator==(const StreamDetector& other) const;

 private:
  /// Flush the open days, oldest first: every one when `all`, else while
  /// the oldest has seen more than flush_margin later-day updates.
  void flush_open_days(bool all);
  void flush_day(int day, std::vector<StreamUpdate> batch);
  void maybe_checkpoint(const CheckpointSink& sink);
  util::ThreadPool& pool() const;
  /// Formats the shards' sections on the pool and the front end's here,
  /// then hashes and writes them in order.
  void write_image(std::ostream& os) const;
  /// The detector's checkpoint records ahead of the shards' sections, saved
  /// from a const detector or restored into a freshly constructed one.
  template <typename IO, typename Detector>
  static void describe_front(IO& io, Detector& d);
  /// Shard `i`'s section: its index, then the shard's own records.
  template <typename IO, typename Shard>
  static void describe_shard(IO& io, std::size_t i, Shard& shard);

  StreamConfig config_;
  std::vector<DetectorShard> shards_;
  /// Lazy, and never checkpointed; a const save may start it.
  mutable std::unique_ptr<util::ThreadPool> pool_;

  std::uint64_t consumed_ = 0;
  int last_flushed_day_ = -1;
  int last_checkpoint_day_ = -1;
  bool finished_ = false;
  FrontCounters front_;
  std::uint64_t peak_total_bytes_ = 0;

  struct OpenDay {
    std::uint64_t later = 0;  // later-day updates delivered while it was open
    std::vector<StreamUpdate> batch;
  };
  /// The members of the dedup window as a fixed open-addressed table:
  /// linear probing over twice the window's slots, so it never grows, and
  /// erase by backward shift, so it leaves no tombstones.
  class SeqTable {
   public:
    /// Adds `seq`; false if it is already there.
    bool insert(std::uint64_t seq);
    /// Removes `seq`, which must be there.
    void erase(std::uint64_t seq);

   private:
    static constexpr std::size_t kSlots = 2 * kDupWindow;
    struct Slot {
      std::uint64_t seq = 0;
      bool used = false;
    };
    static std::size_t home(std::uint64_t seq) { return mix64(seq) & (kSlots - 1); }

    std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  };

  std::map<int, OpenDay> open_days_;
  std::deque<std::uint64_t> dup_order_;  // dedup window, FIFO
  SeqTable dup_seen_;                    // dup_order_'s members

  obs::TraceBus* trace_ = nullptr;
};

}  // namespace moas::stream
