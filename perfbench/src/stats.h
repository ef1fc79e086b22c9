// The harness's own arithmetic: percentiles, medians, ratios with their
// base, and the output fingerprint. Everything a reported number passes
// through lives here, so tests/test_stats.cpp can pin the rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile is emitted only when at least this many samples rank
/// beyond it, so p90 needs >= 100 samples and p50 needs >= 20.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Samples ranked strictly above quantile `q` of `n` samples: n - ceil(q*n).
std::size_t samples_beyond(std::size_t n, double q);

/// Linear-interpolated quantile (the "type 7" rule: position q*(n-1) in the
/// sorted samples), or nullopt when fewer than kMinSamplesBeyond samples
/// lie beyond it.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of any non-empty sample set (no sample-count rule: a median of
/// per-pass values is how passes are combined, not a reported percentile).
double median(std::vector<double> samples);

/// A ratio that always travels with its numerator and denominator, so the
/// printed number states its base ("16540 shed+late+malformed / 1310575
/// delivered"). An empty base (den == 0) yields 0 rather than NaN.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  std::string num_label;
  std::string den_label;

  double value() const { return den == 0.0 ? 0.0 : num / den; }
  std::string describe() const;
};

/// The stream workload's failed ratio: shed, late and malformed updates
/// over delivered updates.
Ratio stream_failed_ratio(std::uint64_t shed, std::uint64_t late, std::uint64_t malformed,
                          std::uint64_t delivered);

/// The batch workloads' failed ratio: failed operations over attempted
/// operations, each labeled with what an operation is.
Ratio batch_failed_ratio(std::uint64_t failed, std::uint64_t attempted,
                         std::string_view failed_label, std::string_view attempted_label);

/// FNV-1a 64-bit over a canonical text rendering of a workload's outputs;
/// printed as 16 hex digits.
class Fingerprint {
 public:
  void add(std::string_view text);
  void add(double value);  // %.17g, so equal doubles hash equal
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  void mix(unsigned char byte);

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// %.17g: every digit of a double, locale-free.
std::string json_number(double value);

}  // namespace perfbench
