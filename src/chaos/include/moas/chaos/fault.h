// The fault vocabulary of the chaos harness.
//
// A fault schedule is a flat, time-sorted list of these events, compiled
// ahead of a run from a seed (see schedule.h) and replayed through the
// simulation clock by the ChaosEngine. The sampled message faults (drop,
// reorder) are not discrete events — the engine's tap draws them per
// message — so they do not appear here.
#pragma once

#include <string>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/sim/event_queue.h"

namespace moas::chaos {

enum class FaultKind : std::uint8_t {
  LinkDown,       // physical link fails (sessions on it drop)
  LinkUp,         // physical link recovers (sessions re-establish)
  SessionReset,   // BGP session torn down + re-established; link stays up
  RouterCrash,    // router loses all protocol state, sessions drop
  RouterRestart,  // crashed router cold-starts and re-announces
  AttrCorrupt,    // next announcement a->b gets its attribute bytes damaged
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  sim::Time at = 0.0;
  FaultKind kind = FaultKind::LinkDown;
  /// Link faults use (a, b) with a < b; router faults use a and leave b 0.
  /// AttrCorrupt is directed: a is the sender, b the receiver.
  bgp::Asn a = 0;
  bgp::Asn b = 0;

  /// Stable textual form, e.g. "t=12.500000 link-down 3--7". The replay log
  /// is these lines joined by newlines; the reproducibility guarantee is
  /// that equal seeds produce byte-identical logs.
  std::string to_string() const;

  friend auto operator<=>(const FaultEvent&, const FaultEvent&) = default;
};

}  // namespace moas::chaos
