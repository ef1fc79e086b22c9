// Seeded registry-outage fault family.
//
// The §4.4 resolution step leans on exactly the infrastructure the paper
// flags as circularly dependent on routing: DNS lookups need routes, IRR
// mirrors sit behind the same transit the hijack is disturbing. This family
// models that dependency failing: seeded outage windows during which every
// registry source answers nothing (requests run to their timeout), plus
// latency-spike windows that multiply every sampled lookup latency.
//
// Like chaos::compile_schedule, compilation is pure: the same config
// compiles to an identical schedule, and to_string() renders a
// byte-identical replay log for equal seeds — which is what lets
// ablation_resolvers compare resolver hardening arms under literally the
// same fault schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "moas/sim/event_queue.h"

namespace moas::chaos {

struct RegistryOutageConfig {
  std::uint64_t seed = 1;

  /// Windows are placed in [0, horizon).
  sim::Time horizon = 600.0;

  /// Mean number of outage windows over the horizon (Poisson; 0 = none).
  double outages = 0.0;
  /// Mean outage duration (exponential, clamped into the horizon).
  sim::Time outage_mean = 10.0;

  /// Mean number of latency-spike windows over the horizon (Poisson).
  double spikes = 0.0;
  /// Mean spike duration (exponential, clamped).
  sim::Time spike_mean = 10.0;
  /// Sampled lookup latencies are multiplied by this inside a spike window.
  double spike_factor = 10.0;

  bool empty() const { return outages <= 0.0 && spikes <= 0.0; }
};

struct RegistryOutageSchedule {
  /// A half-open [start, end) window. An outage window takes every source
  /// down; spike windows carry the latency multiplier in `factor`.
  struct Window {
    sim::Time start = 0.0;
    sim::Time end = 0.0;
    double factor = 1.0;  // latency multiplier (spike windows only)

    friend auto operator<=>(const Window&, const Window&) = default;
  };

  RegistryOutageConfig config;
  std::vector<Window> outages;  // sorted by (start, end)
  std::vector<Window> spikes;   // sorted likewise

  bool empty() const { return outages.empty() && spikes.empty(); }

  /// Is the registry unreachable at time `t`?
  bool down(sim::Time t) const;

  /// Latency multiplier at time `t` (product of active spike windows; 1.0
  /// outside every window).
  double latency_factor(sim::Time t) const;

  /// One line per window — the canonical replay-log form, e.g.
  /// "t=12.500000..17.250000 registry-outage all". Byte-identical for equal
  /// configs.
  std::string to_string() const;
};

/// Compile the outage schedule; every window covers all resolver sources.
RegistryOutageSchedule compile_registry_outages(const RegistryOutageConfig& config);

}  // namespace moas::chaos
