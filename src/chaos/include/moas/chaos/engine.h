// Deterministic fault-schedule replay.
//
// The ChaosEngine owns a compiled FaultSchedule and drives it into a
// bgp::Network. Two modes:
//
//  * arm(): every fault is scheduled on the network's event queue at its
//    compiled time, interleaved with whatever workload the experiment
//    produces. One run_to_quiescence() then plays workload and faults
//    together. This is how Experiment uses it.
//
//  * apply_batch(): tests pull the next few faults and apply them at the
//    current virtual time, then run to quiescence and audit invariants
//    between batches (the queue may have drained arbitrarily far past the
//    compiled timestamps, so batch mode deliberately ignores them).
//
// Message-level faults are sampled per update by a tap installed on the
// network; the tap's generator is seeded from the schedule, so the full
// fault log — discrete events and message faults alike — is byte-identical
// across runs with equal seeds.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "moas/bgp/network.h"
#include "moas/chaos/schedule.h"
#include "moas/util/rng.h"

namespace moas::obs {
class MetricsRegistry;
}  // namespace moas::obs

namespace moas::chaos {

class NetworkInvariantChecker;

class ChaosEngine {
 public:
  struct Stats {
    std::uint64_t link_downs = 0;
    std::uint64_t link_ups = 0;
    std::uint64_t session_resets = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t msgs_seen = 0;
    std::uint64_t msgs_dropped = 0;
    std::uint64_t msgs_reordered = 0;
    // Scheduled AttrCorrupt events (directed, attribute-section-only damage).
    /// Corruption events that found an announcement to damage. The fate of
    /// each splits by the network's error-handling mode:
    std::uint64_t attr_corruptions_applied = 0;
    /// RFC 4271 fate — NOTIFICATION + session reset. Must be zero when
    /// revised_error_handling is on (the no-reset invariant).
    std::uint64_t corrupt_session_resets = 0;
    /// RFC 7606 fates: the message degraded to withdrawals / lost an attr.
    std::uint64_t treat_as_withdraws = 0;
    std::uint64_t attr_discards = 0;
    /// Deliveries whose salvaged communities differed from the sender's —
    /// demoted to error-withdraw so no corrupted MOAS list reaches a RIB.
    std::uint64_t poisoned_blocked = 0;
    /// RFC 2918 route-refresh requests issued after treat-as-withdraw so
    /// the sender re-advertises the error-withdrawn route.
    std::uint64_t route_refreshes_requested = 0;
  };

  /// The engine must not outlive `network`; it clears its tap on
  /// destruction, so declare it after the Network.
  ChaosEngine(bgp::Network& network, FaultSchedule schedule);
  ~ChaosEngine();

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Schedule every fault at its compiled time and install the message tap.
  void arm();

  /// Batch mode: immediately apply up to `max_events` pending faults at the
  /// current virtual time (ignoring compiled timestamps). Returns how many
  /// were applied; 0 means the schedule is exhausted.
  std::size_t apply_batch(std::size_t max_events);
  bool exhausted() const { return next_event_ >= schedule_.events.size(); }

  const FaultSchedule& schedule() const { return schedule_; }
  const Stats& stats() const { return stats_; }

  /// Snapshot every Stats counter into `registry` under "chaos.*" names.
  /// The engine also emits FaultInjected / MessageFault / ErrorDegraded
  /// events onto the network's trace bus (network.trace()) as faults land.
  void collect_metrics(obs::MetricsRegistry& registry) const;

  /// Directed links whose receiver-side view is unreliable because a lossy
  /// message fault hit them and no reset has cleaned up since. Feed these
  /// into NetworkInvariantChecker::exclude_direction before checking.
  const std::set<std::pair<bgp::Asn, bgp::Asn>>& dirty_links() const { return dirty_; }

  /// The replay log: one line per applied fault (discrete and per-message),
  /// in application order. Byte-identical for equal seeds. Scheduled
  /// AttrCorrupt events log only their compiled line — never their
  /// per-message outcome, whose timing depends on traffic — so the log
  /// stays byte-identical between the RFC 4271 and RFC 7606 arms of an
  /// ablation run under the same schedule.
  const std::vector<std::string>& log_lines() const { return log_; }
  std::string log_text() const;

  /// Communities sets that corruption manufactured and the engine refused
  /// to deliver. No RIB anywhere may ever hold one of them (see
  /// register_corruption_invariants).
  const std::set<bgp::CommunitySet>& poisoned_communities() const {
    return poisoned_communities_;
  }

 private:
  void install_tap();
  void remove_tap();
  void apply(const FaultEvent& event);
  bgp::Network::TapVerdict tap(bgp::Asn from, bgp::Asn to, const bgp::Update& update);
  bgp::Network::TapVerdict apply_attr_corruption(bgp::Asn from, bgp::Asn to,
                                                 const bgp::Update& update);
  void clean_direction_pair(bgp::Asn a, bgp::Asn b);
  void clean_router(bgp::Asn asn);
  /// Emit a MessageFault (or, for the RFC fates, ErrorDegraded) trace event
  /// onto the network's bus, if one is attached and recording.
  void trace_fault(const char* note, bgp::Asn from, bgp::Asn to, bool degraded = false);

  bgp::Network& network_;
  FaultSchedule schedule_;
  util::Rng tap_rng_;
  std::size_t next_event_ = 0;  // batch-mode cursor
  bool tap_installed_ = false;
  std::set<std::pair<bgp::Asn, bgp::Asn>> dirty_;
  /// Armed AttrCorrupt events per directed link, consumed by the next
  /// announcement crossing that direction.
  std::map<std::pair<bgp::Asn, bgp::Asn>, unsigned> pending_corruptions_;
  std::set<bgp::CommunitySet> poisoned_communities_;
  std::vector<std::string> log_;
  Stats stats_;
};

/// The RFC 7606 corruption invariant family. Registers custom checks on the
/// checker: (1) with revised error handling on, no scheduled attribute
/// corruption may have reset a session; (2) no RIB entry — Adj-RIB-In or
/// Loc-RIB, any router — may carry a communities set the engine recorded as
/// corruption-manufactured (a poisoned MOAS list must never be accepted).
/// The engine must outlive the checker's last check() call.
void register_corruption_invariants(NetworkInvariantChecker& checker, const ChaosEngine& engine);

}  // namespace moas::chaos
