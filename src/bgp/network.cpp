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
  MOAS_REQUIRE(!index_.contains(asn), "router already exists");
  const auto self = static_cast<std::uint32_t>(nodes_.size());
  auto router = std::make_unique<Router>(
      asn, config_.mode,
      [this, self](Asn to, std::uint32_t link, Update update) {
        deliver(self, to, link, std::move(update));
      },
      &clock_);
  Router& ref = *router;
  if (config_.graceful_restart) ref.set_graceful_restart(config_.gr_restart_time);
  ref.set_trace(trace_);
  nodes_.emplace_back().router = std::move(router);
  index_.try_emplace(asn, self);
  return ref;
}

void Network::set_trace(obs::TraceBus* bus) {
  trace_ = bus;
  for (Node& node : nodes_) node.router->set_trace(bus);
}

obs::MetricsRegistry Network::collect_metrics() const {
  obs::MetricsRegistry registry;
  for (const auto& [_, index] : index_) nodes_[index].router->collect_metrics(registry);
  registry.count("network.messages_sent", messages_sent_);
  registry.count("network.messages_dropped", messages_dropped_);
  registry.set_gauge("network.routers", static_cast<double>(nodes_.size()));
  registry.set_gauge("network.links", static_cast<double>(peerings_.size()));
  registry.count("sim.events_executed", clock_.executed());
  return registry;
}

void Network::connect(Asn a, Asn b, Relationship rel_of_b) {
  const std::uint32_t ia = node_index(a);
  const std::uint32_t ib = node_index(b);
  const auto id = static_cast<std::uint32_t>(links_.size());
  // Each router's transport slot for the peer is the directed link itself.
  nodes_[ia].router->add_peer(b, rel_of_b, id);
  nodes_[ib].router->add_peer(a, reverse(rel_of_b), id + 1);
  links_.push_back(Link{.from = a, .to = b, .sender = ia, .receiver = ib});
  links_.push_back(Link{.from = b, .to = a, .sender = ib, .receiver = ia});
  peerings_.emplace_back();
  // Wiring in ascending peer order (AsGraph::edges() order) appends.
  const auto file = [](Node& node, Asn peer, std::uint32_t link) {
    const auto at = std::lower_bound(node.out.begin(), node.out.end(),
                                     std::pair<Asn, std::uint32_t>(peer, 0));
    node.out.emplace(at, peer, link);
  };
  file(nodes_[ia], b, id);
  file(nodes_[ib], a, id + 1);
}

std::uint32_t Network::node_index(Asn asn) const {
  auto it = index_.find(asn);
  MOAS_REQUIRE(it != index_.end(), "unknown router " + std::to_string(asn));
  return it->second;
}

std::uint32_t Network::out_link(std::uint32_t sender, Asn to) const {
  const std::vector<std::pair<Asn, std::uint32_t>>& out = nodes_[sender].out;
  const auto it = std::lower_bound(out.begin(), out.end(), std::pair<Asn, std::uint32_t>(to, 0));
  return it != out.end() && it->first == to ? it->second : kNoLink;
}

std::uint32_t Network::link_index(Asn from, Asn to) const {
  const std::uint32_t link = out_link(node_index(from), to);
  MOAS_REQUIRE(link != kNoLink, "no such peering");
  return link;
}

Router& Network::router(Asn asn) { return *nodes_[node_index(asn)].router; }

const Router& Network::router(Asn asn) const { return *nodes_[node_index(asn)].router; }

bool Network::router_crashed(Asn asn) const {
  auto it = index_.find(asn);
  return it != index_.end() && nodes_[it->second].crashed;
}

std::vector<Asn> Network::asns() const {
  std::vector<Asn> out;
  out.reserve(index_.size());
  for (const auto& [asn, _] : index_) out.push_back(asn);
  return out;
}

std::vector<std::pair<Asn, Asn>> Network::links() const {
  std::vector<std::pair<Asn, Asn>> out;
  out.reserve(peerings_.size());
  for (std::size_t i = 0; i < links_.size(); i += 2) {
    out.push_back(std::minmax(links_[i].from, links_[i].to));
  }
  // Sorted for schedule determinism, whatever order connect() ran in.
  std::sort(out.begin(), out.end());
  return out;
}

bool Network::run_to_quiescence(std::size_t max_events) {
  return clock_.run(max_events) < max_events || clock_.empty();
}

void Network::set_link_up(Asn a, Asn b, bool up) {
  Peering& state = peering(link_index(a, b));
  if (!up) {
    if (!state.up) return;  // already down
    state.up = false;
    ++state.down_epoch;
    router(a).peer_down(b);
    router(b).peer_down(a);
  } else {
    if (state.up) return;  // already up
    state.up = true;
    // A crashed endpoint keeps the session down even though the physical
    // link recovered; restart_router brings it up then.
    if (router_crashed(a) || router_crashed(b)) return;
    router(a).peer_up(b);
    // The replay above passes through the chaos tap synchronously, so a
    // corrupted replayed UPDATE can reset this very session mid-bring-up.
    // If it did, the link is failed again: bringing the second side up now
    // would book advertisements nothing can deliver, and the eventual real
    // re-establishment would duplicate-suppress its replay against those
    // phantom bookings — a permanent hole.
    if (!state.up) return;
    router(b).peer_up(a);
  }
}

bool Network::link_up(Asn a, Asn b) const {
  // Endpoints that do not peer have no failed link between them.
  if (!index_.contains(a)) return true;
  const std::uint32_t link = out_link(node_index(a), b);
  return link == kNoLink || peering(link).up;
}

void Network::reset_session(Asn a, Asn b) {
  const std::uint32_t link = link_index(a, b);
  if (!peering(link).up) return;  // already down; nothing to reset
  set_link_up(a, b, false);
  // Only restore if no *newer* failure hit the link while we were waiting:
  // a longer-lived link flap injected after this reset owns the recovery.
  const std::uint64_t epoch = peering(link).down_epoch;
  // The restore brings the lower ASN's side up first, whichever end reset.
  clock_.schedule_after(kSessionReestablishDelay, [this, link, epoch] {
    if (peering(link).down_epoch != epoch) return;
    const auto [low, high] = std::minmax(links_[link].from, links_[link].to);
    set_link_up(low, high, true);
  });
}

void Network::crash_router(Asn asn) {
  Node& node = nodes_[node_index(asn)];
  if (node.crashed) return;  // already down
  node.crashed = true;
  // Sessions drop on both sides; marking the link epochs makes any pending
  // session-reset restore yield, and the crashed flag makes deliver() drop
  // whatever is still in flight to or from the dead router.
  for (const auto& [peer, link] : node.out) {
    ++peering(link).down_epoch;
    // peer_restarting honors the graceful-restart negotiation: with GR the
    // peer retains the crashed router's routes as stale; without it this is
    // the cold flush peer_down does.
    if (peering(link).up) router(peer).peer_restarting(asn);
  }
  node.router->crash();
}

void Network::restart_router(Asn asn) {
  Node& node = nodes_[node_index(asn)];
  if (!node.crashed) return;  // not crashed
  node.crashed = false;
  Router& r = *node.router;
  r.restart();
  // Initial route exchange on every operational link (the cold-start
  // re-announcement). Links that are failed, or whose far end is itself
  // crashed, stay down until their own recovery drives peer_up.
  for (const auto& [peer, link] : node.out) {
    if (!peering(link).up) continue;
    if (router_crashed(peer)) continue;
    r.peer_up(peer);
    // Same tap-reentrancy hazard as set_link_up: the replay can reset the
    // session it is riding on; only bring the far side up if it survived.
    if (!peering(link).up) continue;
    router(peer).peer_up(asn);
  }
}

void Network::sever_link_silently(Asn a, Asn b) {
  Peering& state = peering(link_index(a, b));
  state.up = false;
  ++state.down_epoch;
}

bool Network::link_live(std::uint32_t link) const {
  const Link& l = links_[link];
  return peering(link).up && !nodes_[l.sender].crashed && !nodes_[l.receiver].crashed;
}

void Network::deliver(std::uint32_t sender, Asn to, std::uint32_t link, Update update) {
  // The router hands back the link connect() registered for the peering.
  MOAS_ENSURE(link < links_.size() && links_[link].sender == sender && links_[link].to == to,
              "update sent to a peer the network never connected");
  if (!link_live(link)) {
    ++messages_dropped_;
    return;
  }
  ++messages_sent_;
  if (tap_) {
    const Asn from = links_[link].from;
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
          for (Update& replacement : verdict.deliveries) {
            schedule_delivery(link, std::move(replacement), verdict.extra_delay,
                              verdict.allow_reorder);
          }
          return;
        }
        schedule_delivery(link, std::move(update), verdict.extra_delay,
                          verdict.allow_reorder);
        return;
    }
  }
  schedule_delivery(link, std::move(update), 0.0, false);
}

void Network::schedule_delivery(std::uint32_t link, Update update, double extra_delay,
                                bool allow_reorder) {
  const double delay = kLinkDelay + extra_delay + rng_.uniform01() * kJitter;
  // FIFO per directed link: a BGP session is a TCP stream, so a later
  // update must never overtake an earlier one (an overtaken stale
  // announcement would act as a bogus implicit withdraw at the receiver).
  // The reorder fault deliberately breaks this by bypassing the clamp.
  sim::Time at = clock_.now() + delay;
  sim::Time& last = links_[link].clock;
  if (!allow_reorder) {
    if (at <= last) at = last + 1e-9;
    last = at;
  } else if (at > last) {
    last = at;
  }
  // Park the update in the in-flight slab: the sender may mutate its state
  // freely while the message is "on the wire", and the event closure stays
  // {this, slot} — inline in std::function, no allocation per message.
  std::uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  in_flight_[slot].update = std::move(update);
  in_flight_[slot].link = link;
  clock_.schedule_at(at, [this, slot] { arrive(slot); });
}

void Network::arrive(std::uint32_t slot) {
  // Take the update out and free the slot first: the receiver's exports
  // schedule more deliveries, which may grow the slab.
  Update update = std::move(in_flight_[slot].update);
  const std::uint32_t link = in_flight_[slot].link;
  free_in_flight_.push_back(slot);
  // The link failed, or an endpoint crashed, while the message was in flight.
  if (!link_live(link)) {
    ++messages_dropped_;
    return;
  }
  const Link& l = links_[link];
  nodes_[l.receiver].router->handle_update(l.from, std::move(update));
}

}  // namespace moas::bgp
