#include "moas/bgp/router.h"

#include <utility>

#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/util/assert.h"

namespace moas::bgp {

Router::Router(Asn asn, PolicyMode mode, SendFn send, sim::EventQueue* clock)
    : asn_(asn),
      mode_(mode),
      send_(std::move(send)),
      clock_(clock),
      validator_(std::make_shared<AcceptAllValidator>()) {
  MOAS_REQUIRE(asn_ != kNoAs, "router needs a real ASN");
  MOAS_REQUIRE(static_cast<bool>(send_), "router needs a transport callback");
}

void Router::add_peer(Asn peer, Relationship rel, std::uint32_t slot) {
  MOAS_REQUIRE(peer != asn_, "cannot peer with self");
  MOAS_REQUIRE(peer != kNoAs, "peer needs a real ASN");
  MOAS_REQUIRE(!peers_.contains(peer), "peer already registered");
  PeerState& state = peers_[peer];
  state.rel = rel;
  state.slot = slot;
}

std::vector<Asn> Router::peers() const {
  std::vector<Asn> out;
  out.reserve(peers_.size());
  for (const auto& [asn, _] : peers_) out.push_back(asn);
  return out;
}

void Router::set_validator(std::shared_ptr<ImportValidator> validator) {
  MOAS_REQUIRE(validator != nullptr, "validator must not be null");
  validator_ = std::move(validator);
}

void Router::set_mrai(sim::Time seconds) {
  MOAS_REQUIRE(seconds >= 0.0, "MRAI must be non-negative");
  MOAS_REQUIRE(seconds == 0.0 || clock_ != nullptr, "MRAI pacing requires a clock");
  mrai_ = seconds;
}

void Router::set_graceful_restart(sim::Time restart_time) {
  MOAS_REQUIRE(restart_time >= 0.0, "restart time must be non-negative");
  MOAS_REQUIRE(restart_time == 0.0 || clock_ != nullptr,
               "graceful restart requires a clock for the restart timer");
  gr_restart_time_ = restart_time;
}

void Router::originate(const net::Prefix& prefix, CommunitySet communities,
                       OriginCode origin_code) {
  originate(prefix, std::move(communities), LargeCommunitySet{}, origin_code);
}

void Router::originate(const net::Prefix& prefix, CommunitySet communities,
                       LargeCommunitySet large_communities, OriginCode origin_code) {
  Route route;
  route.prefix = prefix;
  route.attrs.path = AsPath({asn_});
  route.attrs.origin_code = origin_code;
  route.attrs.local_pref = kLocalRouteLocalPref;
  route.attrs.communities = std::move(communities);
  route.attrs.large_communities = std::move(large_communities);
  local_[prefix] = std::move(route);
  decide(prefix);
}

void Router::withdraw_origination(const net::Prefix& prefix) {
  if (local_.erase(prefix) == 0) return;
  decide(prefix);
}

void Router::handle_update(Asn from, Update update) {
  const net::Prefix prefix = update.prefix;
  if (import_update(from, std::move(update))) decide(prefix);
}

bool Router::import_update(Asn from, Update&& update) {
  auto peer_it = peers_.find(from);
  MOAS_REQUIRE(peer_it != peers_.end(), "update from unknown peer");
  PeerState& peer = peer_it->second;
  ++stats_.updates_received;

  if (update.kind == Update::Kind::EndOfRib) {
    if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::UpdateReceived, asn_, from)
                       .with_note("end-of-rib"));
    }
    handle_end_of_rib(from);
    return false;  // End-of-RIB runs its own decides during the stale sweep
  }

  if (update.kind == Update::Kind::Withdraw) {
    if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
      obs::TraceEvent event(obs::EventKind::WithdrawReceived, asn_, from);
      event.with_prefix(update.prefix);
      if (update.error_withdraw) event.with_note("error-withdraw");
      trace_->emit(std::move(event));
    }
    const bool had = adj_in_.erase(from, update.prefix);
    if (had) ++stats_.routes_withdrawn;
    if (update.error_withdraw) {
      // RFC 7606 treat-as-withdraw: the peer's announcement arrived damaged
      // and was revoked by error handling, not by the peer. Record it so
      // audits (and the detector's cold-reference rebuild) know this peer's
      // route is not usable evidence until it re-announces.
      ++stats_.error_withdraws;
      if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
        trace_->emit(obs::TraceEvent(obs::EventKind::ErrorWithdraw, asn_, from)
                         .with_prefix(update.prefix));
      }
      peer.error_withdrawn.insert(update.prefix);
      validator_->on_error_withdraw(update.prefix, from, *this);
    } else {
      // An explicit withdrawal supersedes any error-withdrawn record.
      peer.error_withdrawn.erase(update.prefix);
      validator_->on_withdraw(update.prefix, from, *this);
    }
    return had;
  }

  MOAS_ENSURE(update.route.has_value(), "announce without a route");
  Route route = std::move(*update.route);
  MOAS_ENSURE(route.prefix == update.prefix, "update prefix mismatch");
  if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
    trace_->emit(obs::TraceEvent(obs::EventKind::UpdateReceived, asn_, from)
                     .with_prefix(update.prefix));
  }
  // A fresh announcement — accepted or not — replaces whatever damaged one
  // the error-withdrawn record was tracking.
  peer.error_withdrawn.erase(update.prefix);

  // Loop detection: a path containing our own ASN is discarded. The
  // announcement still implicitly withdraws whatever this peer sent before.
  if (route.attrs.path.contains(asn_)) {
    ++stats_.loops_detected;
    return adj_in_.erase(from, route.prefix);
  }

  // Import policy: LOCAL_PREF is assigned locally by relationship.
  route.attrs.local_pref = import_local_pref(mode_, peer.rel);

  // Validation (e.g. MOAS-list checking). The validator may purge
  // previously installed routes through RouterContext::invalidate_origins.
  if (!validator_->accept(route, from, *this)) {
    ++stats_.announcements_rejected;
    return adj_in_.erase(from, route.prefix);
  }

  return adj_in_.set(from, std::move(route));
}

void Router::peer_down(Asn peer) {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  if (!it->second.session_up) return;  // already down
  it->second.session_up = false;
  ++it->second.gr_generation;  // a cold loss supersedes any restart window
  it->second.advertised.clear();
  it->second.pending.clear();
  it->second.next_allowed.clear();
  it->second.error_withdrawn.clear();  // the flush removes what it tracked
  validator_->on_peer_down(peer, *this);
  abandon_deferred_peer(peer);
  for (const net::Prefix& prefix : adj_in_.erase_peer(peer)) {
    // The flush is an implicit withdrawal of everything the peer sent —
    // this is the bulk route loss a session reset inflicts.
    ++stats_.routes_withdrawn;
    decide(prefix);
  }
}

void Router::peer_restarting(Asn peer) {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  if (gr_restart_time_ <= 0.0) {
    peer_down(peer);  // graceful restart not negotiated: cold flush
    return;
  }
  if (!it->second.session_up) return;  // already down
  it->second.session_up = false;
  // Nothing can cross the dead session, so the advertisement bookkeeping
  // resets exactly like peer_down — but the routes *learned from* the peer
  // stay installed and selectable, marked stale. The validator is not told
  // the peer went down: from the detector's perspective the peer's evidence
  // (reference-list support) persists through the restart, which is the
  // point of modeling RFC 4724.
  it->second.advertised.clear();
  it->second.pending.clear();
  it->second.next_allowed.clear();
  stats_.stale_retained += adj_in_.mark_peer_stale(peer);
  abandon_deferred_peer(peer);
  const std::uint64_t gen = ++it->second.gr_generation;
  clock_->schedule_after(gr_restart_time_,
                         [this, peer, gen] { stale_timer_expired(peer, gen); });
}

void Router::peer_up(Asn peer) {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  it->second.session_up = true;
  for (const net::Prefix& prefix : loc_rib_.prefixes()) {
    std::optional<Route> exported;
    send_to_peer(peer, it->second, prefix, loc_rib_.best(prefix), exported);
  }
  if (gr_restart_time_ > 0.0) {
    if (gr_deferring_) {
      // RFC 4724 §4.1: a restarting speaker holds its own End-of-RIB back
      // until its peers complete their initial exchanges — sent now, from a
      // table that hasn't re-learned anything yet, the marker would sweep
      // the helpers' stale routes before the replay chain refreshes them.
      gr_eor_deferred_to_.insert(peer);
      gr_awaiting_eor_from_.insert(peer);
      return;
    }
    // RFC 4724 §2: the initial route exchange ends with the End-of-RIB
    // marker (sent even when there was nothing to replay). It bypasses the
    // per-prefix MRAI/bookkeeping path — it carries no route. The replay
    // above goes out un-paced (session loss cleared next_allowed), so FIFO
    // delivery guarantees the peer sees every replayed route before the
    // marker sweeps its stale leftovers.
    ++stats_.updates_sent;
    ++stats_.eor_sent;
    if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::UpdateSent, asn_, peer)
                       .with_note("end-of-rib"));
    }
    send_(peer, it->second.slot, Update::end_of_rib());
  }
}

void Router::handle_end_of_rib(Asn from) {
  ++stats_.eor_received;
  // Everything still stale was not re-announced in the peer's initial
  // exchange: the restarted peer no longer has those routes, so they are
  // implicit withdrawals.
  const std::vector<net::Prefix> swept = adj_in_.sweep_stale(from);
  stats_.stale_swept += swept.size();
  stats_.routes_withdrawn += swept.size();  // implicit withdrawals
  for (const net::Prefix& prefix : swept) {
    validator_->on_withdraw(prefix, from, *this);
    decide(prefix);
  }
  if (gr_deferring_ && gr_awaiting_eor_from_.erase(from) > 0 &&
      gr_awaiting_eor_from_.empty()) {
    complete_restart_deferral();
  }
}

void Router::complete_restart_deferral() {
  gr_deferring_ = false;
  ++gr_defer_generation_;  // disarm the deferral fallback timer
  for (Asn peer : gr_eor_deferred_to_) {
    auto it = peers_.find(peer);
    if (it == peers_.end() || !it->second.session_up) continue;
    ++stats_.updates_sent;
    ++stats_.eor_sent;
    if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::UpdateSent, asn_, peer)
                       .with_note("end-of-rib"));
    }
    send_(peer, it->second.slot, Update::end_of_rib());
  }
  gr_eor_deferred_to_.clear();
  gr_awaiting_eor_from_.clear();
}

void Router::abandon_deferred_peer(Asn peer) {
  if (!gr_deferring_) return;
  gr_eor_deferred_to_.erase(peer);
  if (gr_awaiting_eor_from_.erase(peer) > 0 && gr_awaiting_eor_from_.empty()) {
    complete_restart_deferral();
  }
}

void Router::stale_timer_expired(Asn peer, std::uint64_t gen) {
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.gr_generation != gen) return;  // superseded
  const std::vector<net::Prefix> swept = adj_in_.sweep_stale(peer);
  if (swept.empty()) return;  // refreshed + swept by End-of-RIB already
  stats_.stale_swept += swept.size();
  stats_.routes_withdrawn += swept.size();  // implicit withdrawals
  // The restart window expired without the peer finishing its comeback:
  // from here on this is a cold loss, validator memory included.
  validator_->on_peer_down(peer, *this);
  for (const net::Prefix& prefix : swept) decide(prefix);
}

bool Router::peer_session_up(Asn peer) const {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  return it->second.session_up;
}

bool Router::route_error_withdrawn(Asn peer, const net::Prefix& prefix) const {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  return it->second.error_withdrawn.contains(prefix);
}

void Router::refresh_route(Asn peer, const net::Prefix& prefix) {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "refresh for unknown peer");
  PeerState& state = it->second;
  if (!state.session_up) return;
  auto adv = state.advertised.find(prefix);
  if (adv == state.advertised.end()) return;
  ++stats_.route_refreshes;
  // Straight onto the wire, bypassing both send_to_peer and transmit: the
  // booked advertisement is exactly what the peer lost, so duplicate
  // suppression would swallow it, and MRAI pacing would hold the recovery
  // hostage to the pacing clock started by the damaged original — letting
  // the peer's withdraw cascade escape in the meantime. A refresh re-sends
  // current state; it neither waits for nor restarts the MRAI timer.
  ++stats_.updates_sent;
  ++stats_.announcements_sent;
  if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
    trace_->emit(obs::TraceEvent(obs::EventKind::UpdateSent, asn_, peer)
                     .with_prefix(prefix)
                     .with_note("route-refresh"));
  }
  send_(peer, state.slot, Update::announce(adv->second));
}

void Router::crash() {
  for (auto& [_, state] : peers_) {
    state.session_up = false;
    state.advertised.clear();
    state.pending.clear();
    state.next_allowed.clear();
    state.error_withdrawn.clear();
    ++state.gr_generation;  // crashing forgets any helper-side restart window
  }
  adj_in_ = AdjRibIn();
  loc_rib_ = LocRib();
  gr_deferring_ = false;
  ++gr_defer_generation_;
  gr_eor_deferred_to_.clear();
  gr_awaiting_eor_from_.clear();
  validator_->on_reset(*this);
}

void Router::restart() {
  // Cold re-announcement: local originations are configuration, so they
  // come back; everything learned is gone until peers resend it. Sessions
  // are still down here, so decide() installs without exporting — the
  // Network drives peer_up per live link, which transmits.
  if (gr_restart_time_ > 0.0 && clock_) {
    // Enter the restarting-speaker deferral (see peer_up); if a peer never
    // finishes its exchange — or two adjacent restarts defer at each other —
    // the restart time bounds the wait, mirroring the helpers' stale timer.
    gr_deferring_ = true;
    const std::uint64_t gen = ++gr_defer_generation_;
    clock_->schedule_after(gr_restart_time_, [this, gen] {
      if (gr_deferring_ && gr_defer_generation_ == gen) complete_restart_deferral();
    });
  }
  for (const auto& [prefix, _] : local_) decide(prefix);
}

const Route* Router::advertised_to(Asn peer, const net::Prefix& prefix) const {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  auto entry = it->second.advertised.find(prefix);
  return entry == it->second.advertised.end() ? nullptr : &entry->second;
}

std::vector<net::Prefix> Router::advertised_prefixes(Asn peer) const {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  std::vector<net::Prefix> out;
  out.reserve(it->second.advertised.size());
  for (const auto& [prefix, _] : it->second.advertised) out.push_back(prefix);
  return out;
}

std::optional<Route> Router::rebuild_export(Asn peer, const net::Prefix& prefix) const {
  auto it = peers_.find(peer);
  MOAS_REQUIRE(it != peers_.end(), "unknown peer");
  const RibEntry* entry = loc_rib_.best(prefix);
  // Split horizon before building the route: the build interns a path.
  if (!entry || entry->learned_from == peer || !export_permitted(*entry, it->second)) {
    return std::nullopt;
  }
  return exported_route(*entry);
}

std::optional<Asn> Router::best_origin(const net::Prefix& prefix) const {
  const RibEntry* entry = loc_rib_.best(prefix);
  if (!entry) return std::nullopt;
  return entry->route.origin_as();
}

std::size_t Router::invalidate_origins(const net::Prefix& prefix,
                                       const AsnSet& false_origins) {
  const std::size_t n = adj_in_.erase_by_origin(prefix, false_origins);
  if (n > 0) decide(prefix);
  return n;
}

AsnSet Router::accepted_origins(const net::Prefix& prefix) const {
  AsnSet origins;
  for (const RibEntry* entry : adj_in_.candidates(prefix)) {
    for (Asn asn : entry->route.attrs.path.origin_view()) origins.insert(asn);
  }
  return origins;
}

void Router::decide(const net::Prefix& prefix) {
  ++stats_.decisions;

  std::vector<const RibEntry*>& candidates = candidates_;
  adj_in_.candidates(prefix, candidates);

  RibEntry local_entry;
  if (auto it = local_.find(prefix); it != local_.end()) {
    local_entry = RibEntry{it->second, asn_};
    candidates.push_back(&local_entry);
  }

  const RibEntry* best = select_best(candidates);
  const RibEntry* old = loc_rib_.best(prefix);

  // Route-age preference: if the established best is still a live candidate
  // and the challenger merely ties its attribute key, keep the established
  // route (stability; also what makes a converged network resist equally
  // long bogus paths).
  if (prefer_established_ && best && old) {
    for (const RibEntry* candidate : candidates) {
      if (*candidate == *old) {
        if (compare_candidate_keys(*best, *candidate) == 0) best = candidate;
        break;
      }
    }
  }

  // Capture the outgoing origin before mutating the Loc-RIB: `old` points
  // into it, and set/erase below invalidates that pointer.
  const bool tracing = obs::trace_wants(trace_, obs::TraceLevel::Summary);
  std::int64_t traced_old = -1;
  if (tracing && old) {
    traced_old = static_cast<std::int64_t>(old->route.origin_as().value_or(kNoAs));
  }

  bool changed = false;
  if (!best) {
    changed = loc_rib_.erase(prefix);
  } else if (!old || !(*old == *best)) {
    loc_rib_.set(prefix, *best);
    changed = true;
  }

  if (changed) {
    ++stats_.best_changes;
    if (tracing) {
      // Route-change events precede the exports they trigger — the trace
      // reads cause-then-effect.
      const RibEntry* now_best = loc_rib_.best(prefix);
      if (now_best) {
        const auto new_origin =
            static_cast<std::int64_t>(now_best->route.origin_as().value_or(kNoAs));
        trace_->emit(obs::TraceEvent(obs::EventKind::RoutePreferred, asn_)
                         .with_prefix(prefix)
                         .with_values(traced_old, new_origin));
      } else {
        trace_->emit(obs::TraceEvent(obs::EventKind::RouteDepreferred, asn_)
                         .with_prefix(prefix)
                         .with_values(traced_old));
      }
    }
    export_prefix(prefix);
  }
}

void Router::export_prefix(const net::Prefix& prefix) {
  const RibEntry* best = loc_rib_.best(prefix);
  std::optional<Route> exported;
  for (auto& [peer, state] : peers_) send_to_peer(peer, state, prefix, best, exported);
}

bool Router::export_permitted(const RibEntry& best, const PeerState& state) const {
  if (best.learned_from == asn_) return true;  // locally originated
  auto from = peers_.find(best.learned_from);
  MOAS_ENSURE(from != peers_.end(), "best route learned from an unknown peer");
  return export_allowed(mode_, from->second.rel, state.rel);
}

Route Router::exported_route(const RibEntry& best) const {
  Route out = best.route;
  // Prepend our ASN unless the path already starts with it (locally
  // originated routes are stored with path == {self}).
  if (out.attrs.path.first() != std::optional<Asn>(asn_)) out.attrs.path.prepend(asn_);
  // LOCAL_PREF is not transitive across EBGP; receivers assign their own.
  out.attrs.local_pref = 100;
  if (strip_communities_ && best.learned_from != asn_) {
    out.attrs.communities.clear();
    out.attrs.large_communities.clear();  // same RFC-permitted strip, wide width
  }
  return out;
}

void Router::send_to_peer(Asn peer, PeerState& state, const net::Prefix& prefix,
                          const RibEntry* best, std::optional<Route>& exported) {
  // Nothing crosses a dead session, and nothing may be booked as
  // advertised either — peer_up will replay the Loc-RIB when the session
  // returns (booking here would let duplicate suppression swallow the
  // replay and leave the peer permanently stale).
  if (!state.session_up) return;

  const Route* desired = nullptr;
  if (best && export_permitted(*best, state)) {
    if (!exported) exported = exported_route(*best);
    // Sender-side split horizon: never advertise a route back to the peer
    // it was learned from (the receiver's loop check would reject it anyway).
    if (best->learned_from != peer) desired = &*exported;
  }

  auto advertised = state.advertised.find(prefix);
  if (desired) {
    if (advertised != state.advertised.end() && advertised->second == *desired) {
      return;  // duplicate suppression
    }
    Update update = Update::announce(*desired);
    // A suppressed update is never booked: the peer keeps whatever it last
    // heard, and the bookkeeping must say so or a later resend would be
    // wrongly deduplicated.
    if (export_filter_ && !export_filter_(update, peer)) return;
    state.advertised[prefix] = *desired;
    transmit(peer, state, std::move(update));
  } else {
    if (advertised == state.advertised.end()) return;
    Update withdraw = Update::withdraw(prefix);
    if (export_filter_ && !export_filter_(withdraw, peer)) return;
    state.advertised.erase(advertised);
    transmit(peer, state, std::move(withdraw));
  }
}

void Router::transmit(Asn peer, PeerState& state, Update update) {
  const net::Prefix prefix = update.prefix;
  if (mrai_ > 0.0 && clock_) {
    auto it = state.next_allowed.find(prefix);
    const sim::Time now = clock_->now();
    if (it != state.next_allowed.end() && now < it->second) {
      auto& slot = state.pending[prefix];
      const bool flush_already_scheduled = slot.has_value();
      slot = std::move(update);  // newest update supersedes queued one
      if (!flush_already_scheduled) {
        std::uint32_t flush;
        if (free_flushes_.empty()) {
          flush = static_cast<std::uint32_t>(flushes_.size());
          flushes_.emplace_back();
        } else {
          flush = free_flushes_.back();
          free_flushes_.pop_back();
        }
        flushes_[flush] = {peer, prefix};
        clock_->schedule_at(it->second, [this, flush] { run_flush(flush); });
      }
      return;
    }
    state.next_allowed[prefix] = now + mrai_;
  }

  ++stats_.updates_sent;
  if (update.kind == Update::Kind::Withdraw) {
    ++stats_.withdrawals_sent;
  } else {
    ++stats_.announcements_sent;
  }
  if (obs::trace_wants(trace_, obs::TraceLevel::Full)) {
    obs::TraceEvent event(obs::EventKind::UpdateSent, asn_, peer);
    event.with_prefix(prefix);
    if (update.kind == Update::Kind::Withdraw) event.with_note("withdraw");
    trace_->emit(std::move(event));
  }
  send_(peer, state.slot, std::move(update));
}

void Router::collect_metrics(obs::MetricsRegistry& registry) const {
  registry.count("router.updates_received", stats_.updates_received);
  registry.count("router.updates_sent", stats_.updates_sent);
  registry.count("router.announcements_sent", stats_.announcements_sent);
  registry.count("router.withdrawals_sent", stats_.withdrawals_sent);
  registry.count("router.announcements_rejected", stats_.announcements_rejected);
  registry.count("router.error_withdraws", stats_.error_withdraws);
  registry.count("router.route_refreshes", stats_.route_refreshes);
  registry.count("router.routes_withdrawn", stats_.routes_withdrawn);
  registry.count("router.loops_detected", stats_.loops_detected);
  registry.count("router.decisions", stats_.decisions);
  registry.count("router.best_changes", stats_.best_changes);
  // Literal 0: perfbench fingerprints hash every registry; ROADMAP item 6 drops it.
  registry.count("router.candidates_damped", 0);
  registry.count("router.eor_sent", stats_.eor_sent);
  registry.count("router.eor_received", stats_.eor_received);
  registry.count("router.stale_retained", stats_.stale_retained);
  registry.count("router.stale_swept", stats_.stale_swept);
}

void Router::run_flush(std::uint32_t flush) {
  const auto [peer, prefix] = flushes_[flush];
  free_flushes_.push_back(flush);
  flush_pending(peer, prefix);
}

void Router::flush_pending(Asn peer, const net::Prefix& prefix) {
  auto pit = peers_.find(peer);
  if (pit == peers_.end()) return;
  auto& slot = pit->second.pending[prefix];
  if (!slot) return;
  Update update = std::move(*slot);
  slot.reset();
  transmit(peer, pit->second, std::move(update));
}

}  // namespace moas::bgp
