#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps q*n exact for products such as 0.9 * 100.
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at ? n - at : 0;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || samples_beyond(samples.size(), q) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
}

std::string Ratio::describe() const {
  return json_number(value()) + " (" + json_number(num) + " " + num_label + " / " +
         json_number(den) + " " + den_label + ")";
}

Ratio stream_failed_ratio(std::uint64_t shed, std::uint64_t late, std::uint64_t malformed,
                          std::uint64_t delivered) {
  return {static_cast<double>(shed + late + malformed), static_cast<double>(delivered),
          "shed+late+malformed updates", "delivered updates"};
}

Ratio batch_failed_ratio(std::uint64_t failed, std::uint64_t attempted,
                         std::string_view failed_label, std::string_view attempted_label) {
  return {static_cast<double>(failed), static_cast<double>(attempted),
          std::string(failed_label), std::string(attempted_label)};
}

void Fingerprint::add(std::string_view text) {
  // A unit separator after each field keeps ("ab","c") and ("a","bc") apart.
  for (const char c : text) mix(static_cast<unsigned char>(c));
  mix(0x1f);
}

void Fingerprint::mix(unsigned char byte) {
  hash_ ^= byte;
  hash_ *= 0x100000001b3ULL;
}

void Fingerprint::add(double value) { add(json_number(value)); }

void Fingerprint::add(std::uint64_t value) { add(std::to_string(value)); }

std::string Fingerprint::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
  return buffer;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
