#include "moas/chaos/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "moas/util/assert.h"
#include "moas/util/rng.h"

namespace moas::chaos {

namespace {

/// Exponential draw with the given mean, floored away from zero so a fault
/// always has an observable extent.
sim::Time exponential(util::Rng& rng, sim::Time mean) {
  const double u = rng.uniform01();
  return std::max<sim::Time>(1e-3, -mean * std::log1p(-u));
}

struct Interval {
  sim::Time down;
  sim::Time up;
};

/// Sample `count` down/up intervals inside [0, horizon), merging overlaps
/// so the result is a clean alternating down/up train.
std::vector<Interval> sample_intervals(util::Rng& rng, unsigned count, sim::Time horizon,
                                       sim::Time mean_downtime) {
  std::vector<Interval> intervals;
  intervals.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    // Leave headroom so the recovery fits strictly inside the horizon.
    const sim::Time down = rng.uniform01() * horizon * 0.9;
    sim::Time up = down + exponential(rng, mean_downtime);
    if (up >= horizon) up = horizon - 1e-3;
    if (up <= down) continue;  // degenerate; drop it
    intervals.push_back({down, up});
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& x, const Interval& y) { return x.down < y.down; });
  std::vector<Interval> merged;
  for (const Interval& iv : intervals) {
    if (!merged.empty() && iv.down <= merged.back().up) {
      merged.back().up = std::max(merged.back().up, iv.up);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::LinkDown: return "link-down";
    case FaultKind::LinkUp: return "link-up";
    case FaultKind::SessionReset: return "session-reset";
    case FaultKind::RouterCrash: return "router-crash";
    case FaultKind::RouterRestart: return "router-restart";
    case FaultKind::AttrCorrupt: return "attr-corrupt";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  char buf[96];
  if (kind == FaultKind::RouterCrash || kind == FaultKind::RouterRestart) {
    std::snprintf(buf, sizeof(buf), "t=%.6f %s %u", at, chaos::to_string(kind), a);
  } else if (kind == FaultKind::AttrCorrupt) {
    std::snprintf(buf, sizeof(buf), "t=%.6f %s %u->%u", at, chaos::to_string(kind), a, b);
  } else {
    std::snprintf(buf, sizeof(buf), "t=%.6f %s %u--%u", at, chaos::to_string(kind), a, b);
  }
  return buf;
}

std::string FaultSchedule::to_string() const {
  std::string out;
  for (const FaultEvent& event : events) {
    out += event.to_string();
    out += '\n';
  }
  return out;
}

FaultSchedule compile_schedule(const ScheduleConfig& config,
                               const std::vector<std::pair<bgp::Asn, bgp::Asn>>& links,
                               const std::vector<bgp::Asn>& asns) {
  MOAS_REQUIRE(config.horizon > 0.0, "schedule horizon must be positive");
  MOAS_REQUIRE(config.flaps_per_link >= 0.0 && config.session_resets_per_link >= 0.0 &&
                   config.crashes_per_router >= 0.0 && config.attr_corruptions_per_link >= 0.0,
               "fault rates must be non-negative");
  MOAS_REQUIRE(config.msg_drop >= 0.0 && config.msg_drop <= 1.0 &&
                   config.msg_reorder >= 0.0 && config.msg_reorder <= 1.0,
               "message fault probabilities must lie in [0, 1]");

  FaultSchedule schedule;
  schedule.config = config;
  util::Rng rng(config.seed ^ 0xc4a05ULL);

  // Links and routers are visited in their (sorted) input order, and every
  // draw comes from the single sequential generator — the schedule is a pure
  // function of (config, links, asns).
  for (const auto& [a, b] : links) {
    if (config.flaps_per_link > 0.0) {
      for (const Interval& iv :
           sample_intervals(rng, rng.poisson(config.flaps_per_link), config.horizon,
                            config.downtime_mean)) {
        schedule.events.push_back({iv.down, FaultKind::LinkDown, a, b});
        schedule.events.push_back({iv.up, FaultKind::LinkUp, a, b});
      }
    }
    if (config.session_resets_per_link > 0.0) {
      const unsigned resets = rng.poisson(config.session_resets_per_link);
      for (unsigned i = 0; i < resets; ++i) {
        const sim::Time at = rng.uniform01() * config.horizon * 0.9;
        schedule.events.push_back({at, FaultKind::SessionReset, a, b});
      }
    }
    if (config.attr_corruptions_per_link > 0.0) {
      const unsigned corruptions = rng.poisson(config.attr_corruptions_per_link);
      for (unsigned i = 0; i < corruptions; ++i) {
        const sim::Time at = rng.uniform01() * config.horizon * 0.9;
        // Directed: pick which side's announcements get damaged.
        const bool a_sends = rng.chance(0.5);
        schedule.events.push_back(
            {at, FaultKind::AttrCorrupt, a_sends ? a : b, a_sends ? b : a});
      }
    }
  }

  if (config.crashes_per_router > 0.0) {
    for (bgp::Asn asn : asns) {
      for (const Interval& iv :
           sample_intervals(rng, rng.poisson(config.crashes_per_router), config.horizon,
                            config.restart_delay_mean)) {
        schedule.events.push_back({iv.down, FaultKind::RouterCrash, asn, 0});
        schedule.events.push_back({iv.up, FaultKind::RouterRestart, asn, 0});
      }
    }
  }

  std::sort(schedule.events.begin(), schedule.events.end());
  return schedule;
}

}  // namespace moas::chaos
