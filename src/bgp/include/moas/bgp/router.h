// An AS-level BGP speaker.
//
// One Router models the externally visible routing behavior of one AS (the
// abstraction the paper's SSFnet simulation uses): it keeps per-peer
// Adj-RIB-In tables, runs the decision process, and re-advertises its best
// routes subject to export policy, optional MRAI pacing, an optional import
// validator (the MOAS detector), and an optional export filter (used to
// model compromised routers that suppress valid routes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "moas/bgp/policy.h"
#include "moas/bgp/rib.h"
#include "moas/bgp/route.h"
#include "moas/bgp/validator.h"
#include "moas/sim/event_queue.h"
#include "moas/util/flat_map.h"

namespace moas::obs {
class MetricsRegistry;
class TraceBus;
}  // namespace moas::obs

namespace moas::bgp {

class Router final : public RouterContext {
 public:
  /// Transport callback: deliver `update` from this router to peer `to`
  /// over transport slot `slot`, the index the transport registered for
  /// the peering with add_peer (kNoTransportSlot if it registered none).
  /// Provided by the Network (adds link delay) and the WaveEngine, which
  /// index their link tables with `slot` directly; may be a direct call in
  /// unit tests.
  /// By-value Update so the send path can move instead of copy: transmit()
  /// hands its update over, and an engine's sink may move it onward into a
  /// queue slot. Callables taking `const Update&` still convert.
  /// The callback must not re-enter this router before returning (both
  /// engines queue the update): an export pass holds the Loc-RIB entry and
  /// the exported route across all peers.
  using SendFn = std::function<void(Asn to, std::uint32_t slot, Update update)>;

  /// The transport slot of a peer no transport wired.
  static constexpr std::uint32_t kNoTransportSlot = UINT32_MAX;

  /// Filter applied to every outgoing update; return false to suppress.
  /// Used by the experiment harness to model compromised routers.
  using ExportFilter = std::function<bool(const Update& update, Asn to)>;

  /// `clock` may be null: then MRAI pacing is unavailable and
  /// current_time() reports 0.
  Router(Asn asn, PolicyMode mode, SendFn send, sim::EventQueue* clock);

  Asn asn() const { return asn_; }

  // --- configuration -------------------------------------------------------

  /// Register a peer with its relationship as seen from this AS. `slot` is
  /// the transport's index for this directed peering, resolved once here
  /// and handed back with every update sent to `peer`.
  void add_peer(Asn peer, Relationship rel, std::uint32_t slot = kNoTransportSlot);
  bool has_peer(Asn peer) const { return peers_.contains(peer); }
  std::vector<Asn> peers() const;

  /// Install the import validator (defaults to accept-all).
  void set_validator(std::shared_ptr<ImportValidator> validator);
  ImportValidator& validator() { return *validator_; }

  void set_export_filter(ExportFilter filter) { export_filter_ = std::move(filter); }

  /// Drop the (optional, transitive) community attribute from everything
  /// this router re-advertises — the RFC-permitted behavior the paper's
  /// Section 4.3 discusses. Locally originated routes keep their
  /// communities.
  void set_strip_communities(bool strip) { strip_communities_ = strip; }

  /// Minimum route advertisement interval per (peer, prefix); 0 disables.
  /// Requires a clock.
  void set_mrai(sim::Time seconds);
  sim::Time mrai() const { return mrai_; }

  /// Keep the currently selected route when a challenger only ties its
  /// attribute key (the "prefer oldest route" stability step many BGP
  /// implementations apply before the router-id tie-break). On by default;
  /// turning it off makes equal-key contests deterministic by neighbor ASN.
  void set_prefer_established(bool prefer) { prefer_established_ = prefer; }

  /// Enable RFC 4724 graceful restart with the given restart time (seconds;
  /// 0 disables). When enabled, peer_restarting() retains the restarting
  /// peer's routes as stale instead of flushing, every session
  /// establishment ends its initial route exchange with an End-of-RIB
  /// marker, and a restart timer flushes stale routes whose peer never came
  /// back. Requires a clock when non-zero.
  void set_graceful_restart(sim::Time restart_time);

  // --- protocol operations --------------------------------------------------

  /// Originate a prefix locally (installs into Loc-RIB and advertises).
  void originate(const net::Prefix& prefix, CommunitySet communities = {},
                 OriginCode origin_code = OriginCode::Igp);

  /// Origination with both community widths — MOAS lists holding 4-octet
  /// members ride RFC 8092 large communities (core::attach_moas_list splits
  /// a mixed list across the two attributes).
  void originate(const net::Prefix& prefix, CommunitySet communities,
                 LargeCommunitySet large_communities,
                 OriginCode origin_code = OriginCode::Igp);

  /// Withdraw a local origination.
  void withdraw_origination(const net::Prefix& prefix);

  /// Entry point for updates arriving from a peer. By value: the Network
  /// moves each delivered update in, and import moves its route onward.
  void handle_update(Asn from, Update update);

  /// Import half of handle_update: runs loop detection, import policy,
  /// validation and the Adj-RIB-In write, but NOT the decision process.
  /// Returns true when the RIB changed and the caller owes a
  /// decide_prefix(update.prefix). The wave engine uses this to ingest a
  /// whole sweep batch before deciding once per touched prefix — the
  /// fixpoint is identical (the decision is a pure function of RIB state),
  /// it just skips the intra-batch transient exports. The caller hands the
  /// update over: the announced route is moved into the Adj-RIB-In.
  bool import_update(Asn from, Update&& update);

  /// Run the decision process for `prefix` now (exports on best change).
  /// Pairs with import_update.
  void decide_prefix(const net::Prefix& prefix) { decide(prefix); }

  /// Session with `peer` went down: flush everything learned from it,
  /// reselect, and forget what was advertised to it (nothing can be
  /// withdrawn over a dead session). While the session is down nothing is
  /// transmitted to the peer and no advertised-state is booked — a dead
  /// session cannot carry updates. Idempotent.
  void peer_down(Asn peer);

  /// Session with `peer` came (back) up: advertise the current Loc-RIB to
  /// it, as the initial route exchange after session establishment does.
  /// With graceful restart enabled the exchange ends with an End-of-RIB
  /// marker, which lets the peer sweep any stale routes we did not replay.
  void peer_up(Asn peer);

  /// The peer crashed but negotiated graceful restart: keep its routes in
  /// use, marked stale, and start the restart timer. If the peer
  /// re-establishes in time its replayed routes refresh the stale entries
  /// and its End-of-RIB sweeps the rest; if the timer fires first the
  /// leftovers are flushed like a cold peer_down. Falls back to peer_down()
  /// when graceful restart is not enabled on this router.
  void peer_restarting(Asn peer);

  /// True while the session with `peer` is considered up (add_peer starts
  /// it up; peer_down/peer_up toggle it).
  bool peer_session_up(Asn peer) const;

  /// True if `peer`'s route for `prefix` was revoked by RFC 7606
  /// treat-as-withdraw (error_withdraw updates) and the peer has not
  /// re-announced or explicitly withdrawn since. Such a route must not be
  /// cited as detector evidence.
  bool route_error_withdrawn(Asn peer, const net::Prefix& prefix) const;

  /// RFC 2918-style route refresh: re-send whatever this router last
  /// advertised for `prefix` to `peer`, bypassing duplicate suppression.
  /// RFC 7606 §6 recommends exactly this after treat-as-withdraw — the
  /// sender's bookkeeping still says the route is advertised, so without a
  /// refresh the error-withdrawn hole would persist until the next organic
  /// change. No-op when the session is down or nothing is advertised (the
  /// session replay / normal export path covers those cases).
  void refresh_route(Asn peer, const net::Prefix& prefix);

  /// Crash: lose every piece of protocol state — Adj-RIB-In, Loc-RIB,
  /// per-peer advertisement bookkeeping, validator memory
  /// (ImportValidator::on_reset). Local originations are configuration and
  /// survive; restart() re-announces them cold. All sessions drop.
  void crash();

  /// Cold restart after crash(): reinstall local originations into the
  /// Loc-RIB. Sessions stay down until peer_up is driven (by the Network)
  /// for each live link.
  void restart();

  // --- queries ---------------------------------------------------------------

  /// Best route currently selected for `prefix` (nullptr if none).
  const RibEntry* best(const net::Prefix& prefix) const { return loc_rib_.best(prefix); }

  /// Origin AS of the selected best route, if any.
  std::optional<Asn> best_origin(const net::Prefix& prefix) const;

  const AdjRibIn& adj_rib_in() const { return adj_in_; }
  const LocRib& loc_rib() const { return loc_rib_; }
  bool originates(const net::Prefix& prefix) const { return local_.contains(prefix); }
  bool has_export_filter() const { return static_cast<bool>(export_filter_); }

  // --- audit queries (chaos::NetworkInvariantChecker) -----------------------

  /// The route this router last put on the wire toward `peer` for `prefix`
  /// (nullptr if nothing outstanding). Mirrors what the peer's Adj-RIB-In
  /// must hold at quiescence.
  const Route* advertised_to(Asn peer, const net::Prefix& prefix) const;

  /// Prefixes with an outstanding advertisement toward `peer`.
  std::vector<net::Prefix> advertised_prefixes(Asn peer) const;

  /// Recompute, from current Loc-RIB + export policy + split horizon, what
  /// this router would advertise to `peer` for `prefix` right now (nullopt:
  /// nothing / withdraw). At quiescence this must agree with advertised_to
  /// for filter-free routers.
  std::optional<Route> rebuild_export(Asn peer, const net::Prefix& prefix) const;

  struct Stats {
    std::uint64_t updates_received = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t announcements_sent = 0;  // updates_sent broken down by kind
    std::uint64_t withdrawals_sent = 0;
    std::uint64_t announcements_rejected = 0;  // validator vetoes
    std::uint64_t error_withdraws = 0;  // RFC 7606 treat-as-withdraw processed
    std::uint64_t route_refreshes = 0;  // RFC 2918 refreshes served to peers
    /// Adj-RIB-In entries removed by any form of withdrawal: explicit or
    /// error withdraw messages, session-loss flushes (the implicit
    /// withdraw-everything a reset inflicts), and graceful-restart stale
    /// sweeps. Wire withdrawals_sent undercounts reset damage — a dead
    /// session sends nothing while its peer's whole table evaporates.
    std::uint64_t routes_withdrawn = 0;
    std::uint64_t loops_detected = 0;
    std::uint64_t decisions = 0;
    std::uint64_t best_changes = 0;
    // Graceful restart (RFC 4724).
    std::uint64_t eor_sent = 0;
    std::uint64_t eor_received = 0;
    std::uint64_t stale_retained = 0;  // entries marked stale at peer restarts
    std::uint64_t stale_swept = 0;     // flushed by End-of-RIB or the timer
  };
  const Stats& stats() const { return stats_; }

  /// Attach (or detach, with nullptr) the observability trace bus. The bus
  /// must outlive the router; emission is gated by obs::trace_wants so a
  /// null/Off bus costs one branch per site.
  void set_trace(obs::TraceBus* bus) { trace_ = bus; }

  /// Snapshot every Stats counter into `registry` under "router.*" names.
  /// Counters sum on registry merge, so calling this for each router of a
  /// network yields the network-wide aggregate.
  void collect_metrics(obs::MetricsRegistry& registry) const;

  // --- RouterContext (for validators) ---------------------------------------
  Asn self() const override { return asn_; }
  sim::Time current_time() const override { return clock_ ? clock_->now() : 0.0; }
  std::size_t invalidate_origins(const net::Prefix& prefix,
                                 const AsnSet& false_origins) override;
  AsnSet accepted_origins(const net::Prefix& prefix) const override;

 private:
  struct PeerState {
    Relationship rel = Relationship::Peer;
    /// The transport's index for this peering (see SendFn).
    std::uint32_t slot = kNoTransportSlot;
    /// Session liveness: while false, nothing is sent and nothing is booked
    /// as advertised (updates cannot cross a dead session).
    bool session_up = true;
    /// What we last advertised for each prefix (for withdraw bookkeeping
    /// and duplicate suppression). Flat storage: at multi-prefix scale this
    /// is the largest per-peer structure, and the routes inside it share
    /// their attribute payloads through the interner anyway.
    util::FlatMap<net::Prefix, Route> advertised;
    /// MRAI state per prefix.
    util::FlatMap<net::Prefix, sim::Time> next_allowed;
    util::FlatMap<net::Prefix, std::optional<Update>> pending;
    /// Prefixes whose last announcement from this peer was revoked by RFC
    /// 7606 treat-as-withdraw (cleared by any fresh update for the prefix).
    util::FlatSet<net::Prefix> error_withdrawn;
    /// Bumped on every restart window (and on cold session loss) so a
    /// pending stale-route timer from a superseded window no-ops.
    std::uint64_t gr_generation = 0;
  };

  /// Re-run the decision process for `prefix`; export on change.
  void decide(const net::Prefix& prefix);

  /// Advertise the current best (or withdrawal) for `prefix` to all peers.
  void export_prefix(const net::Prefix& prefix);

  /// Apply export policy/transforms and pass to the MRAI stage. `best` is
  /// the Loc-RIB entry for `prefix`; `exported` caches exported_route(*best)
  /// across one export pass over all peers — it is built at the first peer
  /// policy admits, exactly where a per-peer build would first have
  /// interned its path.
  void send_to_peer(Asn peer, PeerState& state, const net::Prefix& prefix,
                    const RibEntry* best, std::optional<Route>& exported);

  /// MRAI-paced transmission of a concrete update.
  void transmit(Asn peer, PeerState& state, Update update);
  /// The MRAI timer for flushes_[flush] fired: recycle the record, then
  /// send what is pending for its (peer, prefix).
  void run_flush(std::uint32_t flush);
  void flush_pending(Asn peer, const net::Prefix& prefix);

  /// Export policy: may `best` go to a peer in `state`?
  bool export_permitted(const RibEntry& best, const PeerState& state) const;

  /// `best` as every permitted peer receives it: our ASN prepended,
  /// LOCAL_PREF reset, communities stripped if configured. The same route
  /// for every peer, so one decide builds (and interns) it once.
  Route exported_route(const RibEntry& best) const;

  /// The peer's End-of-RIB arrived: its initial route exchange is complete,
  /// so every still-stale route from it is an implicit withdrawal.
  void handle_end_of_rib(Asn from);

  /// Restart timer for `peer`'s window `gen` fired: flush leftover stale
  /// routes (the peer never finished coming back).
  void stale_timer_expired(Asn peer, std::uint64_t gen);

  /// End the restarting-speaker deferral: send the owed End-of-RIB markers
  /// to every still-up peer recorded during the restart exchange.
  void complete_restart_deferral();

  /// `peer` left (cold loss or new restart window) while we were deferring:
  /// stop waiting for its End-of-RIB and drop the one we owed it.
  void abandon_deferred_peer(Asn peer);

  Asn asn_;
  PolicyMode mode_;
  SendFn send_;
  sim::EventQueue* clock_;

  /// Ascending ASN order: exports walk the peers in this order, which
  /// fixes the order their updates are sent in. Wiring peers in ascending
  /// order (AsGraph::edges() order) appends instead of shifting entries.
  util::FlatMap<Asn, PeerState> peers_;
  AdjRibIn adj_in_;
  LocRib loc_rib_;
  util::FlatMap<net::Prefix, Route> local_;  // locally originated
  /// decide()'s candidate list, reused across calls: decide runs once per
  /// touched prefix, and a grown buffer makes it allocation-free.
  std::vector<const RibEntry*> candidates_;
  /// Scheduled MRAI flushes as recycled (peer, prefix) records: the timer
  /// closure is then {this, index}, inside std::function's inline buffer,
  /// so a paced update allocates no callback.
  std::vector<std::pair<Asn, net::Prefix>> flushes_;
  std::vector<std::uint32_t> free_flushes_;

  std::shared_ptr<ImportValidator> validator_;
  ExportFilter export_filter_;
  bool strip_communities_ = false;
  bool prefer_established_ = true;
  sim::Time mrai_ = 0.0;
  sim::Time gr_restart_time_ = 0.0;  // RFC 4724; 0 = graceful restart off
  /// RFC 4724 §4.1: while this router is itself restarting it defers its
  /// own End-of-RIB until every re-established peer finished its initial
  /// exchange (or the restart time passes) — a marker sent from the
  /// still-empty table would sweep the helpers' stale routes before the
  /// replay chain can refresh them, which is exactly the churn graceful
  /// restart exists to avoid.
  bool gr_deferring_ = false;
  std::set<Asn> gr_eor_deferred_to_;    // peers owed our End-of-RIB
  std::set<Asn> gr_awaiting_eor_from_;  // peers whose End-of-RIB we await
  std::uint64_t gr_defer_generation_ = 0;
  obs::TraceBus* trace_ = nullptr;

  Stats stats_;
};

}  // namespace moas::bgp
