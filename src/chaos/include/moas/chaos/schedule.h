// Seeded fault-schedule compiler.
//
// compile_schedule() turns a ScheduleConfig plus the network's link and
// router lists into a deterministic, time-sorted FaultSchedule: flap trains
// per link (down/up pairs, overlapping intervals merged), session resets,
// and crash/restart pairs per router. Every recovery lands inside the
// horizon, so a completed schedule always leaves the network all-up — the
// invariant checker can then demand full consistency at final quiescence.
//
// Determinism contract: the same (config, links, asns) triple compiles to an
// identical schedule, and the engine's replay log of it is byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "moas/chaos/fault.h"

namespace moas::chaos {

struct ScheduleConfig {
  std::uint64_t seed = 1;

  /// Faults are placed in [0, horizon).
  sim::Time horizon = 600.0;

  // --- link flaps ----------------------------------------------------------
  /// Mean number of failure intervals per link over the horizon (Poisson).
  double flaps_per_link = 0.0;
  /// Mean downtime per failure (exponential, clamped into the horizon).
  sim::Time downtime_mean = 5.0;

  // --- session resets ------------------------------------------------------
  /// Mean number of BGP session resets per link over the horizon.
  double session_resets_per_link = 0.0;

  // --- router crashes ------------------------------------------------------
  /// Mean number of crash/restart cycles per router over the horizon.
  double crashes_per_router = 0.0;
  /// Mean time a crashed router stays down (exponential, clamped).
  sim::Time restart_delay_mean = 10.0;

  // --- message-level faults (sampled per update by the engine tap) ---------
  double msg_drop = 0.0;     // lose the message silently
  double msg_reorder = 0.0;  // delay it and let later traffic overtake

  // --- scheduled attribute corruption (discrete AttrCorrupt events) --------
  /// Mean number of attribute-corruption events per link over the horizon
  /// (Poisson). Unlike the sampled faults this compiles into discrete,
  /// directed AttrCorrupt events: each arms one corruption that hits the next
  /// announcement crossing its direction, and only the attribute section is
  /// damaged (the NLRI stays parseable). Because the events — not the
  /// per-message outcomes — are what the replay log records, the log is
  /// byte-identical whether the receivers run RFC 4271 or RFC 7606
  /// handling, which is what lets the ablation compare the two arms under
  /// literally the same fault schedule.
  double attr_corruptions_per_link = 0.0;

  bool has_message_faults() const {
    return msg_drop > 0.0 || msg_reorder > 0.0 || attr_corruptions_per_link > 0.0;
  }
};

struct FaultSchedule {
  ScheduleConfig config;
  std::vector<FaultEvent> events;  // sorted by (at, kind, a, b)

  bool empty() const { return events.empty() && !config.has_message_faults(); }

  /// One line per event — the canonical replay-log form.
  std::string to_string() const;
};

/// Compile the schedule for a concrete network shape. `links` must be the
/// network's sorted unordered-pair link list (bgp::Network::links()) and
/// `asns` its sorted router list; both orderings are part of the
/// determinism contract.
FaultSchedule compile_schedule(const ScheduleConfig& config,
                               const std::vector<std::pair<bgp::Asn, bgp::Asn>>& links,
                               const std::vector<bgp::Asn>& asns);

}  // namespace moas::chaos
