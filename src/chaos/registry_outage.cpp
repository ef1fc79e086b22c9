#include "moas/chaos/registry_outage.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "moas/util/assert.h"
#include "moas/util/rng.h"

namespace moas::chaos {

namespace {

/// Exponential draw with the given mean, floored away from zero so a window
/// always has an observable extent (same idiom as compile_schedule).
sim::Time exponential(util::Rng& rng, sim::Time mean) {
  const double u = rng.uniform01();
  return std::max<sim::Time>(1e-3, -mean * std::log1p(-u));
}

std::vector<RegistryOutageSchedule::Window> sample_windows(
    util::Rng& rng, unsigned count, const RegistryOutageConfig& config,
    sim::Time mean_duration, double factor) {
  std::vector<RegistryOutageSchedule::Window> windows;
  windows.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    // Leave headroom so the recovery fits strictly inside the horizon: a
    // completed schedule always ends with every source back up, which lets
    // the harness demand explicit settlement of every alarm at quiescence.
    const sim::Time down = rng.uniform01() * config.horizon * 0.9;
    sim::Time up = down + exponential(rng, mean_duration);
    if (up >= config.horizon) up = config.horizon - 1e-3;
    if (up <= down) continue;  // degenerate; drop it
    windows.push_back({down, up, factor});
  }
  std::sort(windows.begin(), windows.end());
  // Merge overlapping windows into a clean train.
  std::vector<RegistryOutageSchedule::Window> merged;
  for (const auto& w : windows) {
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
      merged.back().factor = std::max(merged.back().factor, w.factor);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

std::string window_line(const char* kind, const RegistryOutageSchedule::Window& w) {
  char buf[128];
  if (w.factor != 1.0) {
    std::snprintf(buf, sizeof(buf), "t=%.6f..%.6f %s all x%.3f", w.start, w.end, kind,
                  w.factor);
  } else {
    std::snprintf(buf, sizeof(buf), "t=%.6f..%.6f %s all", w.start, w.end, kind);
  }
  return buf;
}

}  // namespace

bool RegistryOutageSchedule::down(sim::Time t) const {
  for (const Window& w : outages) {
    if (t < w.start) break;  // sorted by start; nothing later can cover t
    if (t < w.end) return true;
  }
  return false;
}

double RegistryOutageSchedule::latency_factor(sim::Time t) const {
  double factor = 1.0;
  for (const Window& w : spikes) {
    if (t < w.start) break;
    if (t < w.end) factor *= w.factor;
  }
  return factor;
}

std::string RegistryOutageSchedule::to_string() const {
  std::string out;
  for (const Window& w : outages) {
    out += window_line("registry-outage", w);
    out += '\n';
  }
  for (const Window& w : spikes) {
    out += window_line("registry-latency-spike", w);
    out += '\n';
  }
  return out;
}

RegistryOutageSchedule compile_registry_outages(const RegistryOutageConfig& config) {
  MOAS_REQUIRE(config.horizon > 0.0, "registry outage horizon must be positive");
  MOAS_REQUIRE(config.outage_mean > 0.0 && config.spike_mean > 0.0,
               "registry outage/spike durations must be positive");
  MOAS_REQUIRE(config.spike_factor >= 1.0, "a latency spike cannot speed lookups up");

  RegistryOutageSchedule schedule;
  schedule.config = config;
  util::Rng rng(config.seed);
  if (config.outages > 0.0) {
    schedule.outages = sample_windows(rng, rng.poisson(config.outages), config,
                                      config.outage_mean, 1.0);
  }
  if (config.spikes > 0.0) {
    schedule.spikes = sample_windows(rng, rng.poisson(config.spikes), config,
                                     config.spike_mean, config.spike_factor);
  }
  return schedule;
}

}  // namespace moas::chaos
