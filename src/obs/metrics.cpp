#include "moas/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace moas::obs {

namespace {

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

FixedHistogram::FixedHistogram(HistogramSpec spec)
    : spec_(spec),
      counts_(spec.buckets, 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (spec.buckets == 0) throw std::invalid_argument("histogram needs buckets");
  if (!(spec.width > 0.0)) throw std::invalid_argument("histogram width <= 0");
}

void FixedHistogram::add(double value) {
  if (value < spec_.lo) {
    ++underflow_;
  } else {
    const auto idx =
        static_cast<std::size_t>((value - spec_.lo) / spec_.width);
    if (idx >= spec_.buckets) {
      ++overflow_;
    } else {
      ++counts_[idx];
    }
  }
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void FixedHistogram::merge(const FixedHistogram& other) {
  if (!(spec_ == other.spec_)) {
    throw std::invalid_argument("histogram spec mismatch on merge");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

bool FixedHistogram::counts_add_up() const {
  std::uint64_t total = underflow_ + overflow_;
  for (const std::uint64_t c : counts_) total += c;
  return total == count_;
}

double FixedHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double FixedHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  double seen = static_cast<double>(underflow_);
  if (rank <= seen) return spec_.lo;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double in_bucket = static_cast<double>(counts_[i]);
    if (rank <= seen + in_bucket) {
      const double frac = in_bucket == 0.0 ? 0.0 : (rank - seen) / in_bucket;
      return spec_.lo + spec_.width * (static_cast<double>(i) + frac);
    }
    seen += in_bucket;
  }
  return spec_.hi();
}

void MetricsRegistry::count(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           const HistogramSpec& spec) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, FixedHistogram(spec)).first;
  } else if (!(it->second.spec() == spec)) {
    throw std::invalid_argument("histogram '" + name +
                                "' already registered with different spec");
  }
  return it->second;
}

const FixedHistogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
  for (const auto& [name, hist] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "\n" : ",\n")
       << "    \"" << name << "\": " << format_double(value);
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"lo\": "
       << format_double(hist.spec().lo)
       << ", \"width\": " << format_double(hist.spec().width)
       << ", \"count\": " << hist.count()
       << ", \"sum\": " << format_double(hist.sum())
       << ", \"underflow\": " << hist.underflow()
       << ", \"overflow\": " << hist.overflow() << ", \"buckets\": [";
    for (std::size_t i = 0; i < hist.bucket_counts().size(); ++i) {
      if (i != 0) os << ", ";
      os << hist.bucket_counts()[i];
    }
    os << "]}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n") << "}\n";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace moas::obs
