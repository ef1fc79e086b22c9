#include "moas/util/stats.h"

#include <algorithm>
#include <cmath>

#include "moas/util/assert.h"

namespace moas::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const {
  MOAS_REQUIRE(n_ > 0, "mean of empty accumulator");
  return mean_;
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  MOAS_REQUIRE(n_ > 0, "min of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  MOAS_REQUIRE(n_ > 0, "max of empty accumulator");
  return max_;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  MOAS_REQUIRE(!xs.empty(), "percentile of empty sample");
  MOAS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

void Histogram::add(std::int64_t key, std::uint64_t weight) {
  bins_[key] += weight;
  total_ += weight;
}

std::uint64_t Histogram::count(std::int64_t key) const {
  auto it = bins_.find(key);
  return it == bins_.end() ? 0 : it->second;
}

double Histogram::fraction(std::int64_t key) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(key)) / static_cast<double>(total_);
}

std::vector<std::pair<std::int64_t, std::uint64_t>> Histogram::bins() const {
  return {bins_.begin(), bins_.end()};
}

std::int64_t Histogram::min_key() const {
  MOAS_REQUIRE(!bins_.empty(), "min_key of empty histogram");
  return bins_.begin()->first;
}

std::int64_t Histogram::max_key() const {
  MOAS_REQUIRE(!bins_.empty(), "max_key of empty histogram");
  return bins_.rbegin()->first;
}

}  // namespace moas::util
