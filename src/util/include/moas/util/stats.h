// Small statistics toolkit used by the measurement pipeline and the
// experiment harness: running accumulators, order statistics, histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace moas::util {

/// Running mean / variance / extrema accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Median of a sample (copies and sorts; averages the middle pair for even n).
/// Requires a non-empty sample.
double median(std::vector<double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty sample.
double percentile(std::vector<double> xs, double p);

/// Integer-keyed frequency histogram (exact bins, e.g. duration in days).
class Histogram {
 public:
  void add(std::int64_t key, std::uint64_t weight = 1);

  std::uint64_t count(std::int64_t key) const;
  std::uint64_t total() const { return total_; }
  /// Fraction of total mass at `key`; 0 if the histogram is empty.
  double fraction(std::int64_t key) const;
  /// All (key, count) pairs in ascending key order.
  std::vector<std::pair<std::int64_t, std::uint64_t>> bins() const;
  std::int64_t min_key() const;
  std::int64_t max_key() const;
  bool empty() const { return bins_.empty(); }

 private:
  std::map<std::int64_t, std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

}  // namespace moas::util
