#include "moas/chaos/engine.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "moas/bgp/wire.h"
#include "moas/chaos/invariants.h"
#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"

namespace moas::chaos {

namespace {

using bgp::Asn;
using bgp::Update;

std::string msg_log_line(sim::Time at, const char* what, Asn from, Asn to) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%.6f %s %u->%u", at, what, from, to);
  return buf;
}

bool same_update(const Update& a, const Update& b) {
  return a.kind == b.kind && a.prefix == b.prefix && a.route == b.route;
}

/// A reordered message is held back by uniform [0, kReorderJitter) seconds.
constexpr sim::Time kReorderJitter = 0.5;

/// A scheduled attribute corruption flips 1..kMaxCorruptFlips bits.
constexpr int kMaxCorruptFlips = 3;

}  // namespace

ChaosEngine::ChaosEngine(bgp::Network& network, FaultSchedule schedule)
    : network_(network),
      schedule_(std::move(schedule)),
      tap_rng_(schedule_.config.seed ^ 0x7a9f00dULL) {}

ChaosEngine::~ChaosEngine() { remove_tap(); }

void ChaosEngine::arm() {
  const sim::Time now = network_.clock().now();
  for (const FaultEvent& event : schedule_.events) {
    network_.clock().schedule_at(std::max(event.at, now), [this, event] { apply(event); });
  }
  next_event_ = schedule_.events.size();  // consumed; batch mode would double-apply
  if (schedule_.config.has_message_faults()) install_tap();
}

std::size_t ChaosEngine::apply_batch(std::size_t max_events) {
  std::size_t applied = 0;
  while (applied < max_events && next_event_ < schedule_.events.size()) {
    apply(schedule_.events[next_event_++]);
    ++applied;
  }
  return applied;
}

void ChaosEngine::install_tap() {
  if (tap_installed_) return;
  network_.set_message_tap(
      [this](Asn from, Asn to, const Update& update) { return tap(from, to, update); });
  tap_installed_ = true;
}

void ChaosEngine::remove_tap() {
  if (!tap_installed_) return;
  network_.set_message_tap(nullptr);
  tap_installed_ = false;
}

std::string ChaosEngine::log_text() const {
  std::string out;
  for (const std::string& line : log_) {
    out += line;
    out += '\n';
  }
  return out;
}

void ChaosEngine::clean_direction_pair(Asn a, Asn b) {
  dirty_.erase({a, b});
  dirty_.erase({b, a});
}

void ChaosEngine::clean_router(Asn asn) {
  for (auto it = dirty_.begin(); it != dirty_.end();) {
    if (it->first == asn || it->second == asn) {
      it = dirty_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosEngine::trace_fault(const char* note, Asn from, Asn to, bool degraded) {
  obs::TraceBus* bus = network_.trace();
  if (!obs::trace_wants(bus, obs::TraceLevel::Summary)) return;
  bus->emit(obs::TraceEvent(
                degraded ? obs::EventKind::ErrorDegraded : obs::EventKind::MessageFault,
                from, to)
                .with_note(note));
}

void ChaosEngine::collect_metrics(obs::MetricsRegistry& registry) const {
  registry.count("chaos.link_downs", stats_.link_downs);
  registry.count("chaos.link_ups", stats_.link_ups);
  registry.count("chaos.session_resets", stats_.session_resets);
  registry.count("chaos.crashes", stats_.crashes);
  registry.count("chaos.restarts", stats_.restarts);
  registry.count("chaos.msgs_seen", stats_.msgs_seen);
  registry.count("chaos.msgs_dropped", stats_.msgs_dropped);
  registry.count("chaos.msgs_reordered", stats_.msgs_reordered);
  registry.count("chaos.attr_corruptions_applied", stats_.attr_corruptions_applied);
  registry.count("chaos.corrupt_session_resets", stats_.corrupt_session_resets);
  registry.count("chaos.treat_as_withdraws", stats_.treat_as_withdraws);
  registry.count("chaos.attr_discards", stats_.attr_discards);
  registry.count("chaos.poisoned_blocked", stats_.poisoned_blocked);
  registry.count("chaos.route_refreshes_requested", stats_.route_refreshes_requested);
}

void ChaosEngine::apply(const FaultEvent& event) {
  log_.push_back(event.to_string());
  if (obs::TraceBus* bus = network_.trace();
      obs::trace_wants(bus, obs::TraceLevel::Summary)) {
    bus->emit(obs::TraceEvent(obs::EventKind::FaultInjected, event.a, event.b)
                  .with_note(event.to_string()));
  }
  switch (event.kind) {
    case FaultKind::LinkDown:
      // peer_down flushes both receivers, so any dirt on the link is gone.
      network_.set_link_up(event.a, event.b, false);
      clean_direction_pair(event.a, event.b);
      ++stats_.link_downs;
      break;
    case FaultKind::LinkUp:
      network_.set_link_up(event.a, event.b, true);
      clean_direction_pair(event.a, event.b);
      ++stats_.link_ups;
      break;
    case FaultKind::SessionReset:
      network_.reset_session(event.a, event.b);
      clean_direction_pair(event.a, event.b);
      ++stats_.session_resets;
      break;
    case FaultKind::RouterCrash:
      network_.crash_router(event.a);
      clean_router(event.a);
      ++stats_.crashes;
      break;
    case FaultKind::RouterRestart:
      network_.restart_router(event.a);
      clean_router(event.a);
      ++stats_.restarts;
      break;
    case FaultKind::AttrCorrupt:
      // Arm one corruption for this direction; the tap damages the next
      // announcement crossing it. Nothing else is logged for this event —
      // the outcome's timing depends on traffic, and the replay log must
      // stay byte-identical across 4271/7606 ablation arms.
      ++pending_corruptions_[{event.a, event.b}];
      break;
  }
}

bgp::Network::TapVerdict ChaosEngine::tap(Asn from, Asn to, const Update& update) {
  using Verdict = bgp::Network::TapVerdict;
  const ScheduleConfig& cfg = schedule_.config;
  const sim::Time now = network_.clock().now();
  ++stats_.msgs_seen;

  Verdict verdict;

  // Scheduled attribute corruption outranks the sampled faults: with a
  // corruption-only schedule no sampled rate is set, so the tap consumes
  // RNG draws only inside apply_attr_corruption and the two ablation arms
  // see identical fault sequences.
  if (!pending_corruptions_.empty() && update.kind == Update::Kind::Announce) {
    auto pending = pending_corruptions_.find({from, to});
    if (pending != pending_corruptions_.end()) {
      if (--pending->second == 0) pending_corruptions_.erase(pending);
      return apply_attr_corruption(from, to, update);
    }
  }

  if (cfg.msg_drop > 0.0 && tap_rng_.chance(cfg.msg_drop)) {
    // The receiver's view of `from` may now be stale until a reset replays
    // the table — mark the direction dirty for the invariant checker.
    ++stats_.msgs_dropped;
    dirty_.insert({from, to});
    log_.push_back(msg_log_line(now, "msg-drop", from, to));
    trace_fault("msg-drop", from, to);
    verdict.action = Verdict::Action::Drop;
    return verdict;
  }

  if (cfg.msg_reorder > 0.0 && tap_rng_.chance(cfg.msg_reorder)) {
    // Let this message fall behind later traffic: an overtaken stale
    // announcement can clobber a newer one, so the direction is dirty.
    ++stats_.msgs_reordered;
    dirty_.insert({from, to});
    log_.push_back(msg_log_line(now, "msg-reorder", from, to));
    trace_fault("msg-reorder", from, to);
    verdict.extra_delay = tap_rng_.uniform01() * kReorderJitter;
    verdict.allow_reorder = true;
  }

  return verdict;
}

bgp::Network::TapVerdict ChaosEngine::apply_attr_corruption(Asn from, Asn to,
                                                            const Update& update) {
  using Verdict = bgp::Network::TapVerdict;
  Verdict verdict;

  std::vector<std::uint8_t> original;
  try {
    original = bgp::wire::encode_sim_update(update);
  } catch (const std::invalid_argument&) {
    return verdict;  // unencodable (e.g. 4-octet ASN); the fault fizzles
  }

  // Locate the path-attribute section so only it is damaged: the NLRI stays
  // parseable, which is what pins the severity below SessionReset under
  // RFC 7606 while strict RFC 4271 still has to reset.
  const std::size_t withdrawn_len =
      (static_cast<std::size_t>(original[bgp::wire::kHeaderSize]) << 8) |
      original[bgp::wire::kHeaderSize + 1];
  const std::size_t attrs_len_pos = bgp::wire::kHeaderSize + 2 + withdrawn_len;
  const std::size_t attrs_len =
      (static_cast<std::size_t>(original[attrs_len_pos]) << 8) | original[attrs_len_pos + 1];
  if (attrs_len == 0) return verdict;  // nothing to damage
  const std::size_t attrs_begin = attrs_len_pos + 2;

  // Re-roll the damage until the strict decoder rejects the message — a
  // fizzled flip (harmless or still-valid) would make the 4271 arm's fate
  // depend on luck instead of on the error-handling mode under test.
  std::vector<std::uint8_t> bytes;
  bool rejected = false;
  for (int attempt = 0; attempt < 32 && !rejected; ++attempt) {
    bytes = original;
    const int flips = 1 + static_cast<int>(tap_rng_.uniform(0, kMaxCorruptFlips - 1));
    for (int i = 0; i < flips; ++i) {
      const std::size_t bit =
          tap_rng_.uniform(attrs_begin * 8, (attrs_begin + attrs_len) * 8 - 1);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    try {
      (void)bgp::wire::decode_update(bytes);
    } catch (const bgp::wire::WireError&) {
      rejected = true;
    }
  }
  if (!rejected) return verdict;  // could not manufacture damage; deliver intact
  ++stats_.attr_corruptions_applied;

  if (!network_.revised_error_handling()) {
    // RFC 4271 arm: the receiver NOTIFYs and resets; flush + replay restore
    // consistency, so the direction is not dirty.
    ++stats_.corrupt_session_resets;
    trace_fault("session-reset", from, to, /*degraded=*/true);
    clean_direction_pair(from, to);
    verdict.action = Verdict::Action::ResetSession;
    return verdict;
  }

  // RFC 7606 arm: classify and survive.
  bgp::wire::DecodeResult result;
  try {
    result = bgp::wire::decode_update_revised(bytes);
  } catch (const bgp::wire::WireError&) {
    // Attribute-confined damage must never be SessionReset class; if it
    // somehow is, count it so the no-reset invariant flags the run.
    ++stats_.corrupt_session_resets;
    trace_fault("session-reset", from, to, /*degraded=*/true);
    clean_direction_pair(from, to);
    verdict.action = Verdict::Action::ResetSession;
    return verdict;
  }

  if (result.severity() >= bgp::wire::ErrorAction::TreatAsWithdraw) {
    ++stats_.treat_as_withdraws;
    trace_fault("treat-as-withdraw", from, to, /*degraded=*/true);
    // Record what the damaged attributes would have injected — the RIB
    // audit can then assert none of it was accepted anywhere.
    if (update.route && result.message.attrs &&
        !result.message.attrs->communities.empty() &&
        !(result.message.attrs->communities == update.route->attrs.communities)) {
      poisoned_communities_.insert(result.message.attrs->communities);
    }
    verdict.deliveries = bgp::wire::to_sim_updates(result.to_deliverable());
    // RFC 7606 §6: recover the treat-as-withdrawn route via route refresh
    // (RFC 2918). The sender's bookkeeping still says the route is out
    // there, so without this the hole would cascade downstream as withdraw
    // churn until the next organic change. One link delay for the
    // error-withdraw to land plus one for the REFRESH to travel back; the
    // re-announcement then crosses the tap like any other message.
    {
      const double rtt = 2.0 * bgp::Network::kLinkDelay;
      const bgp::Asn sender = from;
      const bgp::Asn receiver = to;
      const net::Prefix prefix = update.prefix;
      network_.clock().schedule_after(rtt, [this, sender, receiver, prefix] {
        ++stats_.route_refreshes_requested;
        network_.router(sender).refresh_route(receiver, prefix);
      });
    }
    return verdict;
  }

  // AttributeDiscard: the routes survive minus a non-essential attribute —
  // unless the salvage touched the communities (the MOAS list), in which
  // case delivering it would hand the detector a corrupted list; demote
  // those prefixes to error-withdraw instead.
  ++stats_.attr_discards;
  trace_fault("attribute-discard", from, to, /*degraded=*/true);
  std::vector<Update> deliveries = bgp::wire::to_sim_updates(result.to_deliverable());
  bool differs = deliveries.size() != 1;
  for (Update& delivery : deliveries) {
    if (delivery.kind == Update::Kind::Announce && update.route &&
        !(delivery.route->attrs.communities == update.route->attrs.communities)) {
      if (!delivery.route->attrs.communities.empty()) {
        poisoned_communities_.insert(delivery.route->attrs.communities);
      }
      ++stats_.poisoned_blocked;
      trace_fault("poisoned-blocked", from, to, /*degraded=*/true);
      delivery = Update::make_error_withdraw(delivery.prefix);
    }
    if (!same_update(delivery, update)) differs = true;
  }
  // A delivery that differs from what the sender booked leaves the
  // receiver's view out of sync until something replays it — dirty.
  if (differs) dirty_.insert({from, to});
  verdict.deliveries = std::move(deliveries);
  return verdict;
}

void register_corruption_invariants(NetworkInvariantChecker& checker,
                                    const ChaosEngine& engine) {
  checker.add_custom([&engine](const bgp::Network& network,
                               std::vector<NetworkInvariantChecker::Violation>& violations) {
    if (network.revised_error_handling() && engine.stats().corrupt_session_resets > 0) {
      violations.push_back(
          {"revised-no-reset",
           "RFC 7606 enabled but " + std::to_string(engine.stats().corrupt_session_resets) +
               " scheduled corruption(s) reset a session"});
    }
  });
  checker.add_custom([&engine](const bgp::Network& network,
                               std::vector<NetworkInvariantChecker::Violation>& violations) {
    const auto& poisoned = engine.poisoned_communities();
    if (poisoned.empty()) return;
    for (Asn asn : network.asns()) {
      if (network.router_crashed(asn)) continue;
      const bgp::Router& router = network.router(asn);
      for (const net::Prefix& prefix : router.adj_rib_in().prefixes()) {
        for (const bgp::RibEntry* entry : router.adj_rib_in().candidates(prefix)) {
          if (poisoned.contains(entry->route.attrs.communities)) {
            violations.push_back({"corrupted-moas-in-rib",
                                  std::to_string(asn) + " accepted corrupted communities on " +
                                      entry->route.to_string()});
          }
        }
      }
      for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
        const bgp::RibEntry* best = router.loc_rib().best(prefix);
        if (best && poisoned.contains(best->route.attrs.communities)) {
          violations.push_back({"corrupted-moas-selected",
                                std::to_string(asn) + " selected corrupted communities on " +
                                    best->route.to_string()});
        }
      }
    }
  });
}

}  // namespace moas::chaos
