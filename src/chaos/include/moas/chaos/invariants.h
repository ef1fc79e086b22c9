// Network-wide consistency audit, run at quiescence.
//
// After the event queue drains, the distributed state of the network must
// be self-consistent: nothing routes over a dead link, every Adj-RIB-In
// mirrors what its peer actually advertised, and each router's
// advertised-state bookkeeping matches what its current Loc-RIB and export
// policy say it should have on the wire. The checker walks the whole
// network and reports every violation with enough context to debug it;
// require_clean() turns any violation into a fatal error. Four families
// always run:
//   - loc-rib liveness: every Loc-RIB best route was learned over a link
//     that is up from a peer whose session is up (or is local);
//   - adj-rib mirror: each Adj-RIB-In entry matches the sender's
//     outstanding advertisement; entries the sender never advertised are
//     stale;
//   - advertised consistency: a router's advertised-state bookkeeping
//     equals what its Loc-RIB + export policy would put on the wire right
//     now (skipped for routers with an export filter — deliberately lying
//     routers exist in the threat model);
//   - graceful-restart stale-route hygiene (RFC 4724): at quiescence no
//     Adj-RIB-In entry may still carry a stale mark. The restart timer has
//     drained, so a leftover mark means the End-of-RIB sweep or the timer
//     flush lost a route.
//
// The checks only hold at quiescence — while messages are in flight the
// RIBs legitimately disagree — so callers must run_to_quiescence() first.
// Directed links marked dirty (a lossy message fault touched them and no
// session reset has cleaned up since) are excluded from the mirror checks.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "moas/bgp/network.h"

namespace moas::chaos {

class NetworkInvariantChecker {
 public:
  struct Violation {
    std::string invariant;  // short name, e.g. "loc-rib-live-link"
    std::string detail;     // full diagnostic
    std::string to_string() const { return invariant + ": " + detail; }
  };

  /// Extra, caller-supplied checks (the core layer registers its MOAS/alarm
  /// invariants here — the chaos library cannot see those types).
  using CustomCheck = std::function<void(const bgp::Network&, std::vector<Violation>&)>;
  void add_custom(CustomCheck check);

  /// Exclude the directed link from mirror checks: a lossy fault made the
  /// receiver's view of `from` unreliable until the next session reset.
  void exclude_direction(bgp::Asn from, bgp::Asn to);

  /// Run every check; returns all violations found (empty = clean).
  std::vector<Violation> check(const bgp::Network& network) const;

  /// Fatal variant: throws std::runtime_error listing every violation.
  void require_clean(const bgp::Network& network) const;

 private:
  std::vector<CustomCheck> custom_;
  std::set<std::pair<bgp::Asn, bgp::Asn>> excluded_;  // directed (from, to)
};

}  // namespace moas::chaos
