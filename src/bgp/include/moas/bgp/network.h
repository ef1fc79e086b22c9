// A network of BGP routers coupled through the discrete-event engine.
//
// The Network owns one Router per AS, delivers updates over links with a
// fixed delay (plus seeded jitter so message races are explored), and runs
// the whole system to quiescence. Fault injection happens here: links fail
// and recover, sessions reset, routers crash and cold-restart, and a
// message tap (chaos::ChaosEngine) may drop, delay or corrupt every update
// handed to the transport.
//
// The per-message path is allocation-free and lookup-free: connect()
// resolves each directed peering into a link record (FIFO clock, endpoints,
// up flag) and registers its index with the sending router as the peer's
// transport slot, so a send indexes the link table directly. Routers sit
// in one flat array, and an update in flight waits in a recycled slab slot
// whose event closure is just {this, slot} — small enough for
// std::function's inline buffer. Delivery order is the (at, seq) order of
// the event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "moas/bgp/router.h"
#include "moas/sim/event_queue.h"
#include "moas/util/flat_map.h"
#include "moas/util/rng.h"

namespace moas::obs {
class MetricsRegistry;
class TraceBus;
}  // namespace moas::obs

namespace moas::bgp {

class Network {
 public:
  /// Base one-way propagation + processing delay per link (seconds).
  static constexpr double kLinkDelay = 0.05;

  struct Config {
    PolicyMode mode = PolicyMode::ShortestPath;
    /// RFC 4724 graceful restart, negotiated network-wide: router crashes
    /// leave peers' learned routes in use (marked stale) for up to
    /// `gr_restart_time` seconds, and session establishment ends with an
    /// End-of-RIB marker that sweeps stale leftovers. Off models the cold
    /// restart (crash flushes every peer immediately).
    bool graceful_restart = false;
    double gr_restart_time = 60.0;
    /// RFC 7606 revised UPDATE error handling, network-wide: a damaged
    /// announcement is treated as a withdrawal of its prefixes (or loses a
    /// non-essential attribute) instead of resetting the session. The
    /// chaos engine's corruption faults consult this to decide a damaged
    /// message's fate. Off models strict RFC 4271 resets.
    bool revised_error_handling = false;
    std::uint64_t seed = 1;
  };

  /// Verdict a message tap returns for one in-flight update.
  struct TapVerdict {
    enum class Action {
      Deliver,       // pass through (possibly rewritten)
      Drop,          // lose the message silently
      ResetSession,  // receiver detects garbage: NOTIFICATION + session reset
    };
    Action action = Action::Deliver;
    /// When Action::Deliver: what actually goes on the wire. Empty means
    /// "the original update, unchanged"; otherwise the updates a damaged
    /// message decoded into.
    std::vector<Update> deliveries;
    /// Extra latency for this message only.
    double extra_delay = 0.0;
    /// Allow the delayed message to overtake / be overtaken (bypasses the
    /// per-link FIFO clamp — the reorder fault).
    bool allow_reorder = false;
  };
  using MessageTap = std::function<TapVerdict(Asn from, Asn to, const Update& update)>;

  Network();  // default Config
  explicit Network(Config config);

  /// Create a router for `asn`. Must not already exist.
  Router& add_router(Asn asn);

  /// Connect two existing routers. `rel_of_b` is b's relationship as seen
  /// from a (e.g. Customer means b is a's customer); the reverse edge gets
  /// the mirrored relationship.
  void connect(Asn a, Asn b, Relationship rel_of_b = Relationship::Peer);

  bool has_router(Asn asn) const { return index_.contains(asn); }
  Router& router(Asn asn);
  const Router& router(Asn asn) const;
  std::vector<Asn> asns() const;
  std::size_t size() const { return nodes_.size(); }

  /// Every peering as an unordered pair (a < b), sorted — the link list
  /// fault schedules draw from.
  std::vector<std::pair<Asn, Asn>> links() const;

  sim::EventQueue& clock() { return clock_; }
  const sim::EventQueue& clock() const { return clock_; }

  const Config& config() const { return config_; }

  /// Whether RFC 7606 revised error handling is on network-wide.
  bool revised_error_handling() const { return config_.revised_error_handling; }

  /// Drain the event queue. Returns true if the network quiesced within
  /// `max_events`; false means the cap was hit (a modeling bug — callers
  /// should treat it as fatal).
  bool run_to_quiescence(std::size_t max_events = 50'000'000);

  /// Updates handed to the transport so far.
  std::uint64_t messages_sent() const { return messages_sent_; }

  /// Fail or restore the peering between a and b (failure injection).
  /// Failing drops all in-flight messages on the link and makes both
  /// routers flush each other's routes (session reset); restoring triggers
  /// the initial route exchange again. Requires an existing connection.
  void set_link_up(Asn a, Asn b, bool up);
  bool link_up(Asn a, Asn b) const;

  /// Tear the session between a and b down now and re-establish it a fixed
  /// delay later. Both routers flush and later replay their tables — the
  /// BGP session-reset fault. No-op if the link is already down; the
  /// re-establishment yields to any longer-lived link failure injected in
  /// the meantime.
  void reset_session(Asn a, Asn b);

  /// Crash `asn`: every session to it drops and the router loses all
  /// protocol state (local originations survive as configuration).
  /// In-flight messages to and from it are lost. Without graceful restart
  /// peers flush its routes immediately; with it they retain them as stale
  /// until the restart timer or the post-restart End-of-RIB sweeps them.
  void crash_router(Asn asn);

  /// Cold restart after crash_router: local prefixes are re-announced and
  /// every live link re-establishes its session (initial route exchange).
  void restart_router(Asn asn);

  bool router_crashed(Asn asn) const;

  /// Install (or clear, with nullptr) the message tap consulted for every
  /// update handed to the transport.
  void set_message_tap(MessageTap tap) { tap_ = std::move(tap); }

  /// TEST ONLY: mark the link failed *without* the session-down
  /// bookkeeping (no flush, no withdraw). This deliberately corrupts the
  /// network — it exists so the invariant checker's negative tests can
  /// manufacture an inconsistency through a public entry point.
  void sever_link_silently(Asn a, Asn b);

  /// Messages dropped because their link was down when they would arrive.
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Updates on the wire now: scheduled for arrival, not yet delivered or
  /// dropped.
  std::size_t in_flight() const { return in_flight_.size() - free_in_flight_.size(); }

  /// Attach (or detach, with nullptr) the observability trace bus; the bus
  /// is propagated to every existing and future router. It must outlive the
  /// network. Components around the network (chaos engine, detector) read
  /// it back through trace().
  void set_trace(obs::TraceBus* bus);
  obs::TraceBus* trace() const { return trace_; }

  /// Snapshot the whole network into a metrics registry: every router's
  /// Stats summed under "router.*", transport counters under "network.*",
  /// and the event engine's lifetime count under "sim.events_executed".
  obs::MetricsRegistry collect_metrics() const;

 private:
  struct Node {
    std::unique_ptr<Router> router;
    bool crashed = false;
    /// Outgoing links as (receiver, link index), receiver-ascending: fault
    /// injection looks peerings up here and walks them in ASN order. The
    /// send path does not; it carries the link index itself.
    std::vector<std::pair<Asn, std::uint32_t>> out;
  };
  /// One direction of a peering. connect() appends both directions
  /// together, so link `i`'s peering is `peerings_[i / 2]`.
  struct Link {
    Asn from = kNoAs;
    Asn to = kNoAs;
    std::uint32_t sender = 0;    // node indices
    std::uint32_t receiver = 0;
    /// Last scheduled delivery: BGP speaks over TCP, so updates between
    /// two peers must stay FIFO even with jittered delays.
    sim::Time clock = 0.0;
  };
  /// Failure state both directions of a peering share.
  struct Peering {
    bool up = true;
    /// Bumped every time the peering goes down; a scheduled session
    /// re-establishment only restores it if no newer failure was injected
    /// in the meantime.
    std::uint64_t down_epoch = 0;
  };
  /// An update between its send and its arrival event.
  struct InFlight {
    Update update;
    std::uint32_t link = 0;
  };
  static constexpr std::uint32_t kNoLink = UINT32_MAX;

  std::uint32_t node_index(Asn asn) const;
  /// The link from node `sender` to `to`, or kNoLink if they do not peer.
  std::uint32_t out_link(std::uint32_t sender, Asn to) const;
  /// Index of the directed link from -> to; throws if they do not peer.
  std::uint32_t link_index(Asn from, Asn to) const;
  Peering& peering(std::uint32_t link) { return peerings_[link / 2]; }
  const Peering& peering(std::uint32_t link) const { return peerings_[link / 2]; }
  /// Whether a message may cross `link` now (up, neither end crashed).
  bool link_live(std::uint32_t link) const;
  /// Hand `update` from node `sender` to the transport on directed link
  /// `link` (the sender's transport slot for `to`).
  void deliver(std::uint32_t sender, Asn to, std::uint32_t link, Update update);
  void schedule_delivery(std::uint32_t link, Update update, double extra_delay,
                         bool allow_reorder);
  void arrive(std::uint32_t slot);

  Config config_;
  sim::EventQueue clock_;
  util::Rng rng_;
  std::vector<Node> nodes_;
  util::FlatMap<Asn, std::uint32_t> index_;  // ASN -> node index
  std::vector<Link> links_;
  std::vector<Peering> peerings_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  MessageTap tap_;
  obs::TraceBus* trace_ = nullptr;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace moas::bgp
