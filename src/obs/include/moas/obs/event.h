// Typed trace events for the observability bus.
//
// One TraceEvent records one protocol- or harness-level occurrence with its
// simulated-time timestamp: an UPDATE crossing a link, a best-route change,
// a detector alarm, a chaos fault, an RFC 7606 degradation, a resolver
// attempt, a stream shard shedding or evicting state. Events are plain data — actor/peer are raw AS numbers
// (std::uint32_t, the same representation as bgp::Asn) so this layer sits
// *below* bgp and everything above can emit onto one bus.
//
// The JSONL export is deterministic: field order is fixed, optional fields
// are emitted only when set, and doubles are printed with a fixed format —
// equal event streams serialize to byte-identical output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "moas/net/prefix.h"
#include "moas/sim/event_queue.h"

namespace moas::obs {

enum class EventKind : std::uint8_t {
  UpdateSent,         // router handed an UPDATE to the transport
  UpdateReceived,     // announcement processed at the receiver
  WithdrawReceived,   // withdrawal processed (note = "error-withdraw" if RFC 7606)
  RoutePreferred,     // best route (re)selected; value = old origin, value2 = new
  RouteDepreferred,   // best route lost; value = old origin
  AlarmRaised,        // detector alarm; note = cause
  AlarmResolved,      // conflict resolved; value = origins banned
  AlarmDropped,       // resolution failed; the conflict stays open
  FaultInjected,      // chaos discrete fault; note = the schedule's log line
  MessageFault,       // chaos per-message fault; note = fault kind
  ErrorDegraded,      // RFC 7606 action; note = treat-as-withdraw / attribute-discard / ...
  ErrorWithdraw,      // router processed a treat-as-withdraw revocation
  AttackInjected,     // harness launched a false origination; actor = attacker
  ResolverRequest,    // async resolution attempt dispatched; note = source name
  ResolverTimeout,    // attempt exceeded its per-request timeout; note = source
  ResolverRetry,      // attempt re-dispatched after backoff; value = attempt #
  ResolverBreaker,    // circuit-breaker transition; note = open/half-open/closed
  ResolverFallback,   // chain advanced to the next source; note = new source
  FeedGap,            // stream ingest detected missing feed days; value = first, value2 = last
  UpdatesShed,        // shard degraded to summary-only; value = shed count, value2 = shard
  StateEvicted,       // shard compacted cold prefix state; value = evicted count, value2 = shard
};

/// Stable kebab-case name (the JSONL "kind" field).
const char* to_string(EventKind kind);

struct TraceEvent {
  sim::Time at = 0.0;
  EventKind kind = EventKind::UpdateSent;
  std::uint32_t actor = 0;  // the AS where the event happened
  std::uint32_t peer = 0;   // the other side, when there is one (0 = none)
  bool has_prefix = false;
  net::Prefix prefix;
  /// Kind-specific small payloads (origins, counts); 0 = unset, -1 = "none".
  std::int64_t value = 0;
  std::int64_t value2 = 0;
  std::string note;

  TraceEvent() = default;
  TraceEvent(EventKind kind, std::uint32_t actor, std::uint32_t peer = 0)
      : kind(kind), actor(actor), peer(peer) {}

  TraceEvent& with_prefix(const net::Prefix& p) {
    has_prefix = true;
    prefix = p;
    return *this;
  }
  TraceEvent& with_values(std::int64_t v, std::int64_t v2 = 0) {
    value = v;
    value2 = v2;
    return *this;
  }
  TraceEvent& with_note(std::string n) {
    note = std::move(n);
    return *this;
  }

  /// One JSON object (no trailing newline). Deterministic for equal events.
  std::string to_json() const;

  bool operator==(const TraceEvent&) const = default;
};

/// Write one event per line (the JSONL trace dump).
void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events);

}  // namespace moas::obs
