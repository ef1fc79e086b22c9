#include "moas/bgp/network.h"

#include <algorithm>

#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/util/assert.h"

namespace moas::bgp {

namespace {

/// Uniform extra delay in [0, kJitter) added per message, so message races
/// are explored.
constexpr double kJitter = 0.02;

/// How long a torn-down session takes to re-establish (reset_session and
/// tap-triggered resets).
constexpr double kSessionReestablishDelay = 1.0;

}  // namespace

Network::Network() : Network(Config()) {}

Network::Network(Config config) : config_(config), rng_(config.seed) {
  MOAS_REQUIRE(!config_.graceful_restart || config_.gr_restart_time > 0.0,
               "graceful restart needs a positive restart time");
}

Router& Network::add_router(Asn asn) {
  MOAS_REQUIRE(!routers_.contains(asn), "router already exists");
  auto router = std::make_unique<Router>(
      asn, config_.mode,
      [this](Asn from, Asn to, Update update) { deliver(from, to, std::move(update)); },
      &clock_);
  Router& ref = *router;
  if (config_.graceful_restart) ref.set_graceful_restart(config_.gr_restart_time);
  ref.set_trace(trace_);
  routers_.emplace(asn, std::move(router));
  return ref;
}

void Network::set_trace(obs::TraceBus* bus) {
  trace_ = bus;
  for (auto& [_, router] : routers_) router->set_trace(bus);
}

obs::MetricsRegistry Network::collect_metrics() const {
  obs::MetricsRegistry registry;
  for (const auto& [_, router] : routers_) router->collect_metrics(registry);
  registry.count("network.messages_sent", messages_sent_);
  registry.count("network.messages_dropped", messages_dropped_);
  registry.set_gauge("network.routers", static_cast<double>(routers_.size()));
  registry.set_gauge("network.links", static_cast<double>(links().size()));
  registry.count("sim.events_executed", clock_.executed());
  return registry;
}

void Network::connect(Asn a, Asn b, Relationship rel_of_b) {
  router(a).add_peer(b, rel_of_b);
  router(b).add_peer(a, reverse(rel_of_b));
}

Router& Network::router(Asn asn) {
  auto it = routers_.find(asn);
  MOAS_REQUIRE(it != routers_.end(), "unknown router " + std::to_string(asn));
  return *it->second;
}

const Router& Network::router(Asn asn) const {
  auto it = routers_.find(asn);
  MOAS_REQUIRE(it != routers_.end(), "unknown router " + std::to_string(asn));
  return *it->second;
}

std::vector<Asn> Network::asns() const {
  std::vector<Asn> out;
  out.reserve(routers_.size());
  for (const auto& [asn, _] : routers_) out.push_back(asn);
  return out;
}

std::vector<std::pair<Asn, Asn>> Network::links() const {
  std::vector<std::pair<Asn, Asn>> out;
  for (const auto& [asn, router] : routers_) {
    for (Asn peer : router->peers()) {
      if (asn < peer) out.emplace_back(asn, peer);
    }
  }
  // routers_ iterates in ASN order and peers() is sorted, so this is already
  // sorted — keep the guarantee explicit for schedule determinism.
  std::sort(out.begin(), out.end());
  return out;
}

bool Network::run_to_quiescence(std::size_t max_events) {
  return clock_.run(max_events) < max_events || clock_.empty();
}

void Network::set_link_up(Asn a, Asn b, bool up) {
  MOAS_REQUIRE(router(a).has_peer(b), "no such peering");
  const std::pair<Asn, Asn> key = std::minmax(a, b);
  if (!up) {
    if (!failed_links_.insert(key).second) return;  // already down
    ++link_down_epoch_[key];
    router(a).peer_down(b);
    router(b).peer_down(a);
  } else {
    if (failed_links_.erase(key) == 0) return;  // already up
    // A crashed endpoint keeps the session down even though the physical
    // link recovered; restart_router brings it up then.
    if (crashed_.contains(a) || crashed_.contains(b)) return;
    router(a).peer_up(b);
    // The replay above passes through the chaos tap synchronously, so a
    // corrupted replayed UPDATE can reset this very session mid-bring-up.
    // If it did, the link is failed again: bringing the second side up now
    // would book advertisements nothing can deliver, and the eventual real
    // re-establishment would duplicate-suppress its replay against those
    // phantom bookings — a permanent hole.
    if (failed_links_.contains(key)) return;
    router(b).peer_up(a);
  }
}

bool Network::link_up(Asn a, Asn b) const {
  return !failed_links_.contains(std::minmax(a, b));
}

void Network::reset_session(Asn a, Asn b) {
  MOAS_REQUIRE(router(a).has_peer(b), "no such peering");
  // std::minmax returns a pair of references into the parameters; the
  // re-establish lambda below outlives this frame, so the key must be a
  // value pair or the capture dangles (and the restore silently yields on
  // a garbage epoch lookup, leaving the session down forever).
  const std::pair<Asn, Asn> key = std::minmax(a, b);
  if (failed_links_.contains(key)) return;  // already down; nothing to reset
  set_link_up(a, b, false);
  // Only restore if no *newer* failure hit the link while we were waiting:
  // a longer-lived link flap injected after this reset owns the recovery.
  const std::uint64_t epoch = link_down_epoch_[key];
  clock_.schedule_after(kSessionReestablishDelay, [this, key, epoch] {
    if (link_down_epoch_[key] != epoch) return;
    set_link_up(key.first, key.second, true);
  });
}

void Network::crash_router(Asn asn) {
  Router& r = router(asn);
  if (!crashed_.insert(asn).second) return;  // already down
  // Sessions drop on both sides; marking the link epochs makes any pending
  // session-reset restore yield, and `crashed_` makes deliver() drop
  // whatever is still in flight to or from the dead router.
  for (Asn peer : r.peers()) {
    const std::pair<Asn, Asn> key = std::minmax(asn, peer);
    ++link_down_epoch_[key];
    // peer_restarting honors the graceful-restart negotiation: with GR the
    // peer retains the crashed router's routes as stale; without it this is
    // the cold flush peer_down does.
    if (!failed_links_.contains(key)) router(peer).peer_restarting(asn);
  }
  r.crash();
}

void Network::restart_router(Asn asn) {
  Router& r = router(asn);
  if (crashed_.erase(asn) == 0) return;  // not crashed
  r.restart();
  // Initial route exchange on every operational link (the cold-start
  // re-announcement). Links that are failed, or whose far end is itself
  // crashed, stay down until their own recovery drives peer_up.
  for (Asn peer : r.peers()) {
    if (failed_links_.contains(std::minmax(asn, peer))) continue;
    if (crashed_.contains(peer)) continue;
    r.peer_up(peer);
    // Same tap-reentrancy hazard as set_link_up: the replay can reset the
    // session it is riding on; only bring the far side up if it survived.
    if (failed_links_.contains(std::minmax(asn, peer))) continue;
    router(peer).peer_up(asn);
  }
}

void Network::sever_link_silently(Asn a, Asn b) {
  MOAS_REQUIRE(router(a).has_peer(b), "no such peering");
  const std::pair<Asn, Asn> key = std::minmax(a, b);
  failed_links_.insert(key);
  ++link_down_epoch_[key];
}

void Network::deliver(Asn from, Asn to, Update update) {
  if (!link_up(from, to) || crashed_.contains(from) || crashed_.contains(to)) {
    ++messages_dropped_;
    return;
  }
  ++messages_sent_;
  if (tap_) {
    TapVerdict verdict = tap_(from, to, update);
    switch (verdict.action) {
      case TapVerdict::Action::Drop:
        ++messages_dropped_;
        return;
      case TapVerdict::Action::ResetSession:
        // The receiver decoded garbage: NOTIFICATION + session teardown.
        ++messages_dropped_;
        reset_session(from, to);
        return;
      case TapVerdict::Action::Deliver:
        if (!verdict.deliveries.empty()) {
          for (const Update& replacement : verdict.deliveries) {
            schedule_delivery(from, to, replacement, verdict.extra_delay,
                              verdict.allow_reorder);
          }
          return;
        }
        schedule_delivery(from, to, std::move(update), verdict.extra_delay,
                          verdict.allow_reorder);
        return;
    }
  }
  schedule_delivery(from, to, std::move(update), 0.0, false);
}

void Network::schedule_delivery(Asn from, Asn to, Update update, double extra_delay,
                                bool allow_reorder) {
  const double delay = kLinkDelay + extra_delay + rng_.uniform01() * kJitter;
  // FIFO per directed link: a BGP session is a TCP stream, so a later
  // update must never overtake an earlier one (an overtaken stale
  // announcement would act as a bogus implicit withdraw at the receiver).
  // The reorder fault deliberately breaks this by bypassing the clamp.
  sim::Time at = clock_.now() + delay;
  auto& last = link_clock_[{from, to}];
  if (!allow_reorder) {
    if (at <= last) at = last + 1e-9;
    last = at;
  } else if (at > last) {
    last = at;
  }
  // Move the update into the event: the sender may mutate its state freely
  // while the message is "on the wire" (we own this copy since deliver()).
  clock_.schedule_at(at, [this, from, to, update = std::move(update)] {
    if (!link_up(from, to)) {  // the link failed while the message was in flight
      ++messages_dropped_;
      return;
    }
    if (crashed_.contains(from) || crashed_.contains(to)) {
      ++messages_dropped_;
      return;
    }
    auto it = routers_.find(to);
    MOAS_ENSURE(it != routers_.end(), "message addressed to unknown router");
    it->second->handle_update(from, update);
  });
}

}  // namespace moas::bgp
