#include "moas/core/detector.h"

#include <algorithm>
#include <iterator>
#include <span>

#include "moas/obs/metrics.h"
#include "moas/util/assert.h"

namespace moas::core {

namespace {

AsnSet difference(const AsnSet& a, const AsnSet& b) {
  AsnSet out;
  for (Asn x : a) {
    if (!b.contains(x)) out.insert(x);
  }
  return out;
}

template <typename Range>
bool subset(const Range& a, const AsnSet& b) {
  return std::all_of(a.begin(), a.end(), [&](Asn x) { return b.contains(x); });
}

}  // namespace

MoasDetector::MoasDetector(std::shared_ptr<AlarmLog> alarms,
                           std::shared_ptr<OriginResolver> resolver)
    : alarms_(std::move(alarms)), resolver_(std::move(resolver)) {
  MOAS_REQUIRE(alarms_ != nullptr, "detector needs an alarm log");
}

bool MoasDetector::accept(const bgp::Route& route, bgp::Asn from_peer,
                          bgp::RouterContext& ctx) {
  ++stats_.routes_checked;
  const net::Prefix prefix = route.prefix;
  PrefixState& state = state_[prefix];

  // The effective list (footnote 3): the explicit list if the route carries
  // one, else its origin candidates. Neither is copied here: the explicit
  // list is a memoized canonical handle, the origins a view into the
  // interned path.
  const std::span<const Asn> origins = route.attrs.path.origin_view();
  const MoasList explicit_list = moas_list_of(route.attrs);

  // Fast path: the origin was already identified as false. The rejected
  // peer is one more witness asserting the banned origin — remember it so
  // the ban outlives the peer that originally triggered it. No new alarm:
  // the first detection already flagged the origin.
  if (state.bans) {
    bool banned = false;
    for (Asn asn : origins) {
      if (auto it = state.bans->find(asn); it != state.bans->end()) {
        it->second.insert(from_peer);
        banned = true;
      }
    }
    if (banned) {
      ++stats_.rejections;
      return false;
    }
  }

  // Self-consistency: a route carrying an explicit list must include its
  // own origin; otherwise it is bogus on its face.
  if (!explicit_list.empty() && !subset(origins, explicit_list.set())) {
    const std::size_t id =
        raise(ctx, prefix, state.reference.set(), explicit_list.set(),
              AsnSet(origins.begin(), origins.end()), MoasAlarm::Cause::OriginNotInList);
    alarms_->settle(id, MoasAlarm::State::Resolved, ctx.current_time());
    ++stats_.rejections;
    return false;
  }

  if (state.reference.empty()) {
    // Cold state for this prefix — a genuinely first announcement, or
    // memory purged by churn (supporting peer flapped away, router
    // restarted). Before adopting blindly, rebuild the reference from the
    // origins of routes already sitting in the Adj-RIB-In: if the RIB holds
    // a conflicting origin, this is a latent MOAS case to resolve, not a
    // fresh prefix.
    const AsnSet rib_origins = ctx.accepted_origins(prefix);
    if (rib_origins.empty()) {
      // First announcement for this prefix: adopt its list as the reference
      // ("is simply accepted if this is the first and only announcement").
      state.reference = explicit_list.empty() ? MoasList::of(origins) : explicit_list;
      state.supporters.insert(from_peer);
      return true;
    }
    state.reference = MoasList::of(rib_origins);  // supporters stay empty: evidence-derived
  }

  // Set equality: between two canonical handles a pointer compare.
  if (explicit_list.empty() ? state.reference.equals(origins)
                            : state.reference == explicit_list) {
    state.supporters.insert(from_peer);
    return true;
  }

  const AsnSet origin_set(origins.begin(), origins.end());
  return resolve_conflict(prefix, from_peer, ctx, state, origin_set,
                          explicit_list.empty() ? origin_set : explicit_list.set());
}

bool MoasDetector::resolve_conflict(const net::Prefix& prefix, bgp::Asn from_peer,
                                    bgp::RouterContext& ctx, PrefixState& state,
                                    const AsnSet& origins, const AsnSet& incoming_list) {
  const std::size_t alarm_id = raise(ctx, prefix, state.reference.set(), incoming_list, origins,
                                     MoasAlarm::Cause::ListMismatch);

  if (async_) {
    // Degraded mode: investigation takes wall-clock time now. The alarm goes
    // Pending, the route is accepted (availability never regresses while we
    // wait), and nothing is evicted or overwritten until an answer arrives —
    // the resolution completion does the banning/purging retroactively.
    alarms_->settle(alarm_id, MoasAlarm::State::Pending, ctx.current_time());
    auto [it, inserted] = pending_.try_emplace(prefix);
    PendingConflict& pc = it->second;
    pc.ctx = &ctx;
    pc.alarm_ids.push_back(alarm_id);
    for (Asn asn : origins) pc.asserted[asn].insert(from_peer);
    for (Asn asn : incoming_list) pc.asserted[asn].insert(from_peer);
    if (inserted) {
      // First conflict for this prefix: also implicate the current reference
      // and its supporters, then launch exactly one resolution. Later
      // conflicting routes for the same prefix fold into this request.
      for (Asn asn : state.reference.set()) {
        pc.asserted[asn].insert(state.supporters.begin(), state.supporters.end());
      }
      pc.generation = next_generation_++;
      const std::uint64_t generation = pc.generation;
      async_->request(prefix, [this, prefix, generation](const AsyncResolver::Outcome& o) {
        on_resolution(prefix, generation, o);
      });
    }
    ++stats_.degraded_accepts;
    return true;
  }

  std::optional<AsnSet> truth;
  if (resolver_) truth = resolver_->resolve(prefix);

  if (!truth) {
    // Investigation came up empty: behave like plain BGP (accept) so the
    // mechanism never makes availability worse, but keep the alarm on
    // record (explicitly Expired). Do not overwrite the reference — later
    // evidence may still resolve the conflict.
    ++stats_.resolutions_failed;
    alarms_->settle(alarm_id, MoasAlarm::State::Expired, ctx.current_time());
    if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::AlarmDropped, ctx.self())
                       .with_prefix(prefix)
                       .with_note("resolution-failed"));
    }
    return true;
  }

  // Ban every origin we have seen asserted that is not actually valid, and
  // purge any such routes that made it into the RIB before the conflict
  // surfaced. The sender of this route asserts its origins and list; the
  // old reference is asserted by its supporters. An accepted sender is the
  // first supporter of the resolved reference.
  Witnesses asserted;
  for (Asn asn : origins) asserted[asn].insert(from_peer);
  for (Asn asn : incoming_list) asserted[asn].insert(from_peer);
  const bool accepted = subset(origins, *truth);
  apply_truth(prefix, ctx, state, *truth, accepted ? AsnSet{from_peer} : AsnSet{}, asserted,
              {alarm_id});
  if (!accepted) ++stats_.rejections;
  return accepted;
}

void MoasDetector::apply_truth(const net::Prefix& prefix, bgp::RouterContext& ctx,
                               PrefixState& state, const AsnSet& truth, AsnSet supporters,
                               const Witnesses& asserted,
                               const std::vector<std::size_t>& alarm_ids) {
  AsnSet implicated = state.reference.set();
  for (const auto& [asn, peers] : asserted) implicated.insert(asn);
  const AsnSet false_origins = difference(implicated, truth);
  for (Asn asn : false_origins) {
    // Tie the ban to the peers that asserted the false origin; when the
    // *old* reference was the lie, the peers that had backed it.
    AsnSet support;
    if (auto it = asserted.find(asn); it != asserted.end()) support = it->second;
    if (state.reference.set().contains(asn)) {
      support.insert(state.supporters.begin(), state.supporters.end());
    }
    if (support.empty()) {
      // Last resort so the ban has a live witness: the first peer that
      // asserted anything in this conflict. Evidence-derived entries carry
      // empty peer-sets, so scan for a non-empty one rather than blindly
      // dereferencing the first.
      for (const auto& [other, peers] : asserted) {
        if (!peers.empty()) {
          support.insert(*peers.begin());
          break;
        }
      }
    }
    if (support.empty()) continue;  // no live witness anywhere: don't ban
    if (!state.bans) state.bans = std::make_unique<Witnesses>();
    (*state.bans)[asn].insert(support.begin(), support.end());
  }
  state.reference = MoasList::of(truth);
  state.supporters = std::move(supporters);

  if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
    trace_->emit(obs::TraceEvent(obs::EventKind::AlarmResolved, ctx.self())
                     .with_prefix(prefix)
                     .with_values(static_cast<std::int64_t>(false_origins.size())));
  }

  if (!false_origins.empty()) {
    stats_.purges += ctx.invalidate_origins(prefix, false_origins);
  }
  for (std::size_t id : alarm_ids) {
    alarms_->settle(id, MoasAlarm::State::Resolved, ctx.current_time());
  }
}

void MoasDetector::on_resolution(const net::Prefix& prefix, std::uint64_t generation,
                                 const AsyncResolver::Outcome& outcome) {
  auto it = pending_.find(prefix);
  if (it == pending_.end() || it->second.generation != generation) return;
  PendingConflict pc = std::move(it->second);
  pending_.erase(it);
  bgp::RouterContext& ctx = *pc.ctx;

  if (outcome.fate != AsyncResolver::Fate::Resolved || !outcome.answer.has_value()) {
    // Every source failed or the budget ran out: the conflict stays open,
    // and every alarm folded into it expires explicitly — none is lost.
    ++stats_.resolutions_failed;
    for (std::size_t id : pc.alarm_ids) {
      alarms_->settle(id, MoasAlarm::State::Expired, ctx.current_time());
    }
    if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::AlarmDropped, ctx.self())
                       .with_prefix(prefix)
                       .with_note(core::to_string(outcome.fate)));
    }
    return;
  }

  auto sit = state_.find(prefix);
  if (sit == state_.end()) {
    // The prefix state was pruned (peer churn, error-withdraw) while the
    // answer was in flight: the detector deliberately forgot this prefix, so
    // don't resurrect state from stale peer attribution. The alarms still
    // settle explicitly — the investigation did conclude.
    for (std::size_t id : pc.alarm_ids) {
      alarms_->settle(id, MoasAlarm::State::Resolved, ctx.current_time());
    }
    if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::AlarmResolved, ctx.self())
                       .with_prefix(prefix)
                       .with_note("state-pruned"));
    }
    return;
  }
  apply_truth(prefix, ctx, sit->second, *outcome.answer, {}, pc.asserted, pc.alarm_ids);
}

std::size_t MoasDetector::raise(bgp::RouterContext& ctx, const net::Prefix& prefix,
                                const AsnSet& reference, const AsnSet& observed,
                                const AsnSet& offending, MoasAlarm::Cause cause) {
  ++stats_.alarms_raised;
  MoasAlarm alarm;
  alarm.at = ctx.current_time();
  alarm.observer = ctx.self();
  alarm.prefix = prefix;
  alarm.reference_list = reference;
  alarm.observed_list = observed;
  alarm.offending_origins = offending;
  alarm.cause = cause;
  return alarms_->record(std::move(alarm));
}

void MoasDetector::on_peer_down(bgp::Asn peer, bgp::RouterContext& /*ctx*/) {
  for (auto it = state_.begin(); it != state_.end();) {
    PrefixState& state = it->second;
    state.supporters.erase(peer);
    // With the last supporter gone, the reference rests on nothing: the
    // peers will cold-announce and the list is re-adopted from scratch.
    if (state.supporters.empty()) state.reference = {};
    if (state.bans) {
      Witnesses& bans = *state.bans;
      for (auto bit = bans.begin(); bit != bans.end();) {
        bit->second.erase(peer);
        bit = bit->second.empty() ? bans.erase(bit) : std::next(bit);
      }
      if (bans.empty()) state.bans.reset();
    }
    if (state.reference.empty() && !state.bans) {
      it = state_.erase(it);
    } else {
      ++it;
    }
  }
}

void MoasDetector::on_error_withdraw(const net::Prefix& prefix, bgp::Asn from_peer,
                                     bgp::RouterContext& ctx) {
  auto it = state_.find(prefix);
  if (it == state_.end()) return;
  PrefixState& state = it->second;
  state.supporters.erase(from_peer);
  if (state.supporters.empty()) {
    // The reference rests on nothing the detector can still point to.
    // Rebuild it from routes that survived in the Adj-RIB-In (the router
    // already dropped the error-withdrawn one), so the next announcement is
    // checked against real evidence rather than adopted blindly — and never
    // against anything salvaged from the damaged message.
    state.reference = MoasList::of(ctx.accepted_origins(prefix));
  }
  if (state.reference.empty() && !state.bans && state.supporters.empty()) {
    state_.erase(it);
  }
}

void MoasDetector::on_reset(bgp::RouterContext& ctx) {
  // The crash wipes detector memory, so in-flight investigations have
  // nothing to apply to: their alarms expire explicitly (never silently)
  // and stale completions no-op on the generation guard.
  for (auto& [prefix, pc] : pending_) {
    ++stats_.resolutions_failed;
    for (std::size_t id : pc.alarm_ids) {
      alarms_->settle(id, MoasAlarm::State::Expired, ctx.current_time());
    }
  }
  pending_.clear();
  state_.clear();
}

void MoasDetector::collect_metrics(obs::MetricsRegistry& registry) const {
  registry.count("detector.routes_checked", stats_.routes_checked);
  registry.count("detector.alarms_raised", stats_.alarms_raised);
  registry.count("detector.rejections", stats_.rejections);
  registry.count("detector.purges", stats_.purges);
  registry.count("detector.resolutions_failed", stats_.resolutions_failed);
  registry.count("detector.degraded_accepts", stats_.degraded_accepts);
}

AsnSet MoasDetector::reference_list(const net::Prefix& prefix) const {
  auto it = state_.find(prefix);
  return it == state_.end() ? AsnSet{} : it->second.reference.set();
}

AsnSet MoasDetector::banned_origins(const net::Prefix& prefix) const {
  AsnSet out;
  auto it = state_.find(prefix);
  if (it == state_.end() || !it->second.bans) return out;
  for (const auto& [asn, _] : *it->second.bans) out.insert(asn);
  return out;
}

std::size_t MoasDetector::state_bytes() const {
  std::size_t bytes = state_.container_bytes();
  for (const auto& [_, state] : state_) {
    bytes += state.supporters.container_bytes();
    if (!state.bans) continue;
    bytes += sizeof(Witnesses) + state.bans->container_bytes();
    for (const auto& [asn, peers] : *state.bans) bytes += peers.container_bytes();
  }
  return bytes;
}

}  // namespace moas::core
