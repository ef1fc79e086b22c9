// Named-metric registry: counters, gauges, fixed-bucket histograms.
//
// The registry unifies the scattered per-component Stats structs behind
// dotted metric names ("router.updates_sent", "chaos.treat_as_withdraws",
// "detector.alarm_latency_first"). Components *snapshot into* a registry —
// they keep their cheap local counters on the hot path and dump them when a
// run finishes — so the registry itself is never on a per-message path.
//
// Merge semantics (used when reducing per-run registries in plan order):
//   counters    sum
//   gauges      last writer wins
//   histograms  bucket-wise sum; specs must match exactly (throws otherwise)
//
// All maps are std::map (sorted), so the JSON manifest is deterministic and
// two equal registries serialize to byte-identical output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace moas::obs {

/// `buckets` equal-width bins covering [lo, lo + width * buckets), plus
/// explicit underflow/overflow counts outside that range.
struct HistogramSpec {
  double lo = 0.0;
  double width = 1.0;
  std::size_t buckets = 0;

  double hi() const { return lo + width * static_cast<double>(buckets); }
  bool operator==(const HistogramSpec&) const = default;
};

class FixedHistogram {
 public:
  FixedHistogram() = default;
  explicit FixedHistogram(HistogramSpec spec);

  void add(double value);
  /// Bucket-wise sum. Throws std::invalid_argument on spec mismatch.
  void merge(const FixedHistogram& other);

  const HistogramSpec& spec() const { return spec_; }
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  // +inf when empty
  double max() const { return max_; }  // -inf when empty
  double mean() const;                 // 0.0 when empty
  bool empty() const { return count_ == 0; }

  /// Linear interpolation within the bucket containing quantile `q` in
  /// [0, 1]; underflow counts at `lo`, overflow at `hi`. 0.0 when empty.
  double quantile(double q) const;

  /// The persisted state, const or mutable, as `fn(underflow, overflow,
  /// count, sum, min, max, bucket_counts)`: the stream checkpoint saves and
  /// restores a histogram through this one list, bit-exact, so a restored
  /// histogram compares equal to the one that was saved. The bucket count
  /// is the spec's; restore writes into the existing buckets, then checks
  /// counts_add_up().
  template <typename Self, typename Fn>
  static void fields(Self& h, Fn&& fn) {
    fn(h.underflow_, h.overflow_, h.count_, h.sum_, h.min_, h.max_, h.counts_);
  }
  /// count() is the total of the buckets and under/overflow.
  bool counts_add_up() const;

  bool operator==(const FixedHistogram&) const = default;

 private:
  HistogramSpec spec_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Add `delta` to counter `name` (created at zero on first touch).
  void count(const std::string& name, std::uint64_t delta = 1);
  std::uint64_t counter(const std::string& name) const;  // 0 when absent

  void set_gauge(const std::string& name, double value);
  double gauge(const std::string& name) const;  // 0.0 when absent

  /// Get-or-create. Throws std::invalid_argument if `name` exists with a
  /// different spec.
  FixedHistogram& histogram(const std::string& name, const HistogramSpec& spec);
  const FixedHistogram* find_histogram(const std::string& name) const;

  /// counters sum, gauges last-writer-wins, histograms merge.
  void merge(const MetricsRegistry& other);

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, FixedHistogram>& histograms() const {
    return histograms_;
  }
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Deterministic manifest: sorted names, fixed double formatting.
  std::string to_json() const;
  void write_json(std::ostream& os) const;

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, FixedHistogram> histograms_;
};

}  // namespace moas::obs
