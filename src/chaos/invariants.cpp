#include "moas/chaos/invariants.h"

#include <stdexcept>

namespace moas::chaos {

namespace {

using bgp::Asn;
using bgp::Network;
using bgp::Route;
using bgp::Router;

/// Equality of the wire-visible part of a route: LOCAL_PREF is rewritten by
/// the receiver's import policy, so the mirror comparison must ignore it.
bool same_on_wire(const Route& a, const Route& b) {
  return a.prefix == b.prefix && a.attrs.path == b.attrs.path &&
         a.attrs.origin_code == b.attrs.origin_code && a.attrs.med == b.attrs.med &&
         a.attrs.communities == b.attrs.communities;
}

std::string link_name(Asn from, Asn to) {
  return std::to_string(from) + "->" + std::to_string(to);
}

}  // namespace

void NetworkInvariantChecker::add_custom(CustomCheck check) {
  custom_.push_back(std::move(check));
}

void NetworkInvariantChecker::exclude_direction(Asn from, Asn to) {
  excluded_.insert({from, to});
}

std::vector<NetworkInvariantChecker::Violation> NetworkInvariantChecker::check(
    const Network& network) const {
  std::vector<Violation> violations;

  for (Asn asn : network.asns()) {
    const Router& router = network.router(asn);
    if (network.router_crashed(asn)) continue;  // no state to audit

    // Every selected route must be reachable: learned locally, or from a
    // live peer over a live link. A best route pointing across a failed
    // link means a session-down flush was missed somewhere.
    for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
      const bgp::RibEntry* entry = router.loc_rib().best(prefix);
      if (entry->learned_from == asn) continue;  // local origination
      const Asn via = entry->learned_from;
      if (!network.link_up(asn, via)) {
        violations.push_back({"loc-rib-live-link",
                              std::to_string(asn) + " selects " + entry->route.to_string() +
                                  " learned over failed link " + link_name(via, asn)});
      } else if (network.router_crashed(via)) {
        violations.push_back({"loc-rib-live-peer",
                              std::to_string(asn) + " selects " + entry->route.to_string() +
                                  " from crashed router " + std::to_string(via)});
      } else if (!router.peer_session_up(via)) {
        violations.push_back({"loc-rib-live-session",
                              std::to_string(asn) + " selects " + entry->route.to_string() +
                                  " from " + std::to_string(via) +
                                  " whose session is down"});
      }
    }

    // This router is the *receiver*; audit its view of each sender.
    for (Asn sender : router.peers()) {
      for (const net::Prefix& prefix : router.adj_rib_in().prefixes()) {
        const bgp::RibEntry* held = router.adj_rib_in().from_peer(prefix, sender);
        if (!held) continue;
        if (!router.peer_session_up(sender)) {
          violations.push_back({"adj-rib-dead-session",
                                std::to_string(asn) + " still holds " +
                                    held->route.to_string() + " from " +
                                    std::to_string(sender) +
                                    " although that session is down"});
          continue;
        }
        if (excluded_.contains({sender, asn})) continue;  // lossy link: view unreliable
        if (network.router_crashed(sender)) continue;     // flush arrives via peer_down
        const Route* advertised = network.router(sender).advertised_to(asn, prefix);
        if (!advertised) {
          violations.push_back({"adj-rib-stale",
                                std::to_string(asn) + " holds " + held->route.to_string() +
                                    " but " + std::to_string(sender) +
                                    " has no outstanding advertisement for it"});
        } else if (!same_on_wire(held->route, *advertised)) {
          violations.push_back({"adj-rib-mismatch",
                                std::to_string(asn) + " holds " + held->route.to_string() +
                                    " but " + std::to_string(sender) + " last sent " +
                                    advertised->to_string()});
        }
        // The converse — sender advertised, receiver holds nothing — is
        // legal: the receiver's validator may have vetoed the route or
        // discarded it for an AS-path loop.
      }
    }

    // Stale-route hygiene (RFC 4724): quiescence means every restart
    // timer fired and every re-established peer delivered its End-of-RIB,
    // so any surviving stale mark escaped both sweep paths. The sender's
    // session state tells us which path lost it.
    for (const auto& [prefix, sender] : router.adj_rib_in().stale_entries()) {
      const char* name = router.peer_session_up(sender) ? "stale-route-after-eor"
                                                        : "stale-route-past-timer";
      violations.push_back({name,
                            std::to_string(asn) + " still marks " + prefix.to_string() +
                                " from " + std::to_string(sender) +
                                " stale at quiescence"});
    }

    if (!router.has_export_filter()) {
      // Sender-side audit: bookkeeping vs. what export policy would emit.
      for (Asn peer : router.peers()) {
        if (!router.peer_session_up(peer)) continue;
        for (const net::Prefix& prefix : router.advertised_prefixes(peer)) {
          const Route* advertised = router.advertised_to(peer, prefix);
          auto rebuilt = router.rebuild_export(peer, prefix);
          if (!rebuilt) {
            violations.push_back(
                {"advertised-should-withdraw",
                 std::to_string(asn) + " booked " + advertised->to_string() + " toward " +
                     std::to_string(peer) + " but export policy yields nothing"});
          } else if (*rebuilt != *advertised) {
            violations.push_back({"advertised-mismatch",
                                  std::to_string(asn) + " booked " + advertised->to_string() +
                                      " toward " + std::to_string(peer) +
                                      " but would now send " + rebuilt->to_string()});
          }
        }
        for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
          if (router.advertised_to(peer, prefix)) continue;  // audited above
          if (auto rebuilt = router.rebuild_export(peer, prefix)) {
            violations.push_back({"advertised-missing",
                                  std::to_string(asn) + " should be advertising " +
                                      rebuilt->to_string() + " toward " +
                                      std::to_string(peer) + " but booked nothing"});
          }
        }
      }
    }
  }

  for (const CustomCheck& custom : custom_) custom(network, violations);
  return violations;
}

void NetworkInvariantChecker::require_clean(const Network& network) const {
  const std::vector<Violation> violations = check(network);
  if (violations.empty()) return;
  std::string message = "network invariants violated (" +
                        std::to_string(violations.size()) + "):";
  for (const Violation& violation : violations) {
    message += "\n  ";
    message += violation.to_string();
  }
  throw std::runtime_error(message);
}

}  // namespace moas::chaos
