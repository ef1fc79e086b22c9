// The MOAS-list consistency checker — the paper's detection mechanism,
// packaged as a bgp::ImportValidator that plugs into a Router.
//
// Per prefix, the detector remembers the reference MOAS list it currently
// believes, plus the set of origins it has identified as false ("banned").
// Every arriving announcement is reduced to its effective MOAS list
// (explicit list, else {origin} — footnote 3) and compared by set equality.
// A mismatch raises an alarm; if a resolver is attached and answers, the
// routes whose origins are not in the resolved set are rejected and any
// already-installed ones are purged, which stops the false route from
// propagating any further — exactly the behavior the paper's simulation
// assumes. If resolution fails (or the detector runs alarm-only), the
// announcement is accepted like plain BGP so that availability never
// regresses below the baseline.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "moas/bgp/validator.h"
#include "moas/core/alarm.h"
#include "moas/core/async_resolver.h"
#include "moas/core/moas_list.h"
#include "moas/core/resolver.h"
#include "moas/util/flat_map.h"

namespace moas::obs {
class MetricsRegistry;
}  // namespace moas::obs

namespace moas::core {

class MoasDetector final : public bgp::ImportValidator {
 public:
  /// `alarms` collects alarms across routers (shared per experiment);
  /// `resolver` may be null — then the detector only raises alarms and never
  /// filters (the "off-line monitoring only" deployment).
  MoasDetector(std::shared_ptr<AlarmLog> alarms, std::shared_ptr<OriginResolver> resolver);

  /// Switch conflict investigation to the clock-driven fault-tolerant path:
  /// list mismatches raise a Pending alarm and enter degraded mode instead
  /// of blocking on the synchronous resolver (which is then unused for
  /// conflicts). The resolver must outlive the detector's last in-flight
  /// request — in practice both live for the whole run.
  void set_async_resolver(std::shared_ptr<AsyncResolver> resolver) {
    async_ = std::move(resolver);
  }

  /// Degraded mode: at least one conflict is awaiting resolution. While
  /// degraded the detector contains conservatively — conflicting routes are
  /// accepted (availability never regresses), nothing is evicted, and the
  /// reference list is left untouched until an answer arrives.
  bool degraded() const { return !pending_.empty(); }
  std::size_t pending_conflicts() const { return pending_.size(); }

  bool accept(const bgp::Route& route, bgp::Asn from_peer,
              bgp::RouterContext& ctx) override;

  /// Session loss drops the evidence tied to that peer: it no longer
  /// supports the reference list, and banned origins nobody else asserted
  /// are unbanned (the peer will cold-announce when it returns, and the
  /// conflict — if still real — re-resolves from fresh announcements).
  void on_peer_down(bgp::Asn peer, bgp::RouterContext& ctx) override;

  /// RFC 7606 treat-as-withdraw revoked this peer's route: the announcement
  /// arrived damaged, so whatever list it carried is not evidence. The peer
  /// stops supporting the reference for `prefix`; if it was the last
  /// supporter the reference is rebuilt from the origins still standing in
  /// the Adj-RIB-In (never from the damaged announcement). Bans stay — the
  /// peer's earlier, intact assertions are unaffected by one corrupt UPDATE.
  void on_error_withdraw(const net::Prefix& prefix, bgp::Asn from_peer,
                         bgp::RouterContext& ctx) override;

  /// A crashed router loses detector memory wholesale.
  void on_reset(bgp::RouterContext& ctx) override;

  struct Stats {
    std::uint64_t routes_checked = 0;
    std::uint64_t alarms_raised = 0;
    std::uint64_t rejections = 0;          // announcements vetoed
    std::uint64_t purges = 0;              // installed routes invalidated
    std::uint64_t resolutions_failed = 0;  // conflict stayed unresolved
    std::uint64_t degraded_accepts = 0;    // routes accepted while a conflict was pending
  };
  const Stats& stats() const { return stats_; }

  /// Attach (or detach, with nullptr) the trace bus: conflict resolutions
  /// emit AlarmResolved / AlarmDropped events (AlarmRaised comes from the
  /// shared AlarmLog). The bus must outlive the detector.
  void set_trace(obs::TraceBus* bus) { trace_ = bus; }

  /// Snapshot every Stats counter into `registry` under "detector.*" names.
  void collect_metrics(obs::MetricsRegistry& registry) const;

  /// The reference list currently held for `prefix` (empty if none yet).
  AsnSet reference_list(const net::Prefix& prefix) const;

  /// Origins this detector has identified as false for `prefix`.
  AsnSet banned_origins(const net::Prefix& prefix) const;

  /// Heap bytes of the per-prefix state: the state table's capacity (which
  /// holds each reference as a MoasList handle), each prefix's supporter
  /// set, and the out-of-line ban tables. The pooled lists behind the
  /// handles live in the process-wide MoasList pool (no run arena holds
  /// them) and are not counted, nor are in-flight async conflicts.
  std::size_t state_bytes() const;

 private:
  /// origin -> peers that asserted it.
  using Witnesses = util::FlatMap<bgp::Asn, AsnSet>;

  struct PrefixState {
    MoasList reference;  // the MOAS list we currently believe
    AsnSet supporters;   // peers whose accepted announcements back `reference`
    /// Origins resolved to be false, each with the peers that asserted it; a
    /// ban evaporates once every asserting peer's session has gone down.
    /// Out of line because few prefixes ever ban anything: allocated on the
    /// first ban, freed when the last witness goes.
    std::unique_ptr<Witnesses> bans;
  };

  /// A conflict whose resolution is in flight. The RouterContext pointer is
  /// safe to keep: the Router outlives the run, and every completion is
  /// delivered through the run's own event queue.
  struct PendingConflict {
    bgp::RouterContext* ctx = nullptr;
    std::vector<std::size_t> alarm_ids;  // every alarm folded into this conflict
    /// Origins asserted while the conflict was pending; feeds ban
    /// attribution when the answer arrives.
    Witnesses asserted;
    /// Guards against callbacks from a pre-reset incarnation of the conflict.
    std::uint64_t generation = 0;
  };

  /// Records the alarm and returns its AlarmLog id.
  std::size_t raise(bgp::RouterContext& ctx, const net::Prefix& prefix,
                    const AsnSet& reference, const AsnSet& observed,
                    const AsnSet& offending, MoasAlarm::Cause cause);

  /// Handle a list conflict; returns whether the incoming route is accepted.
  /// `origins` and `incoming_list` are the route's, built by accept only
  /// once it has found the conflict.
  bool resolve_conflict(const net::Prefix& prefix, bgp::Asn from_peer,
                        bgp::RouterContext& ctx, PrefixState& state, const AsnSet& origins,
                        const AsnSet& incoming_list);

  /// Apply a resolved truth: ban false origins, adopt the reference backed
  /// by `supporters`, purge the false routes, settle `alarm_ids`. The purge
  /// calls back into the router after the last write to `state`, so no
  /// state reference is used once the router has run.
  void apply_truth(const net::Prefix& prefix, bgp::RouterContext& ctx, PrefixState& state,
                   const AsnSet& truth, AsnSet supporters, const Witnesses& asserted,
                   const std::vector<std::size_t>& alarm_ids);

  /// Completion of an async resolution for `prefix` (generation-guarded).
  void on_resolution(const net::Prefix& prefix, std::uint64_t generation,
                     const AsyncResolver::Outcome& outcome);

  std::shared_ptr<AlarmLog> alarms_;
  std::shared_ptr<OriginResolver> resolver_;
  std::shared_ptr<AsyncResolver> async_;
  /// Sorted by prefix; insert and erase move entries, so no PrefixState&
  /// is kept across one.
  util::FlatMap<net::Prefix, PrefixState> state_;
  std::map<net::Prefix, PendingConflict> pending_;
  std::uint64_t next_generation_ = 1;
  obs::TraceBus* trace_ = nullptr;
  Stats stats_;
};

}  // namespace moas::core
