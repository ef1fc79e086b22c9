// MOAS alarms.
//
// "Whenever a BGP router notices any inconsistency in the MOAS Lists
//  received, it should generate an alarm signal; further investigation
//  should be conducted to identify the cause of the inconsistency."
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/net/prefix.h"
#include "moas/obs/trace.h"
#include "moas/sim/event_queue.h"

namespace moas::core {

struct MoasAlarm {
  enum class Cause : std::uint8_t {
    ListMismatch,      // two announcements carry different MOAS lists
    OriginNotInList,   // a route's own origin is missing from its list
    /// A route from an origin already identified as false. MoasDetector
    /// does not raise it; it stays so AlarmLog's per-cause tallies and the
    /// stream checkpoint keep their layout.
    BannedOriginSeen,
  };

  /// Alarm lifecycle. Every alarm must reach a terminal state: Resolved
  /// (investigation identified the false origins) or Expired (resolution
  /// failed or ran out of budget — the conflict stays open, explicitly).
  /// Pending marks an alarm whose resolution is still in flight (degraded
  /// detector mode); a run that quiesces with Pending alarms lost them.
  enum class State : std::uint8_t { Raised, Pending, Resolved, Expired };

  sim::Time at = 0.0;
  bgp::Asn observer = bgp::kNoAs;  // the AS that raised the alarm
  net::Prefix prefix;
  bgp::AsnSet reference_list;  // the list the observer held
  bgp::AsnSet observed_list;   // the list on the offending announcement
  bgp::AsnSet offending_origins;  // origin candidates of that announcement
  Cause cause = Cause::ListMismatch;
  State state = State::Raised;
  sim::Time settled_at = -1.0;  // when a terminal state was reached (-1 = not yet)

  std::string to_string() const;

  bool operator==(const MoasAlarm&) const = default;
};

const char* to_string(MoasAlarm::Cause cause);
const char* to_string(MoasAlarm::State state);

/// Append-only alarm sink shared by all detectors in one experiment.
///
/// record() and settle() may run concurrently (the wave engine drains
/// independent routers on several workers); alarm order then follows the
/// workers' interleaving, so no result may depend on it. Every other
/// member is single-threaded.
///
/// Long-lived (streaming) deployments cap the log with set_retention():
/// once more than `cap` alarms are retained, the oldest *settled* alarms
/// are folded into per-state/per-cause tallies and dropped. Ids stay
/// stable across compaction (they are absolute record indices), open
/// alarms are never compacted, and count()/count_state()/size() keep
/// reporting totals over everything ever recorded. The default (cap 0,
/// unlimited) preserves the historical append-only behaviour exactly.
class AlarmLog {
 public:
  /// Sees each alarm that compaction folds away, just before it is dropped.
  using FoldVisitor = std::function<void(const MoasAlarm&)>;

  /// Records the alarm and returns its id so the raiser can settle it
  /// later. Ids are absolute: they survive compaction. `on_fold` (optional)
  /// sees every older alarm this record compacts away.
  std::size_t record(MoasAlarm alarm, const FoldVisitor& on_fold = {}) {
    const std::scoped_lock lock(guard_.mutex);
    if (obs::trace_wants(trace_, obs::TraceLevel::Summary)) {
      trace_->emit(obs::TraceEvent(obs::EventKind::AlarmRaised, alarm.observer)
                       .with_prefix(alarm.prefix)
                       .with_note(to_string(alarm.cause)));
    }
    alarms_.push_back(std::move(alarm));
    maybe_compact(on_fold);
    return base_ + alarms_.size() - 1;
  }

  /// Transition alarm `id` to `state` at time `at`. Only forward moves are
  /// legal: Raised -> Pending, and Raised/Pending -> Resolved/Expired; a
  /// settled alarm never changes again. Settling an already-compacted id
  /// is a precondition violation (only settled alarms are ever compacted).
  void settle(std::size_t id, MoasAlarm::State state, sim::Time at);

  /// The retained window (everything, when no retention cap is set).
  const std::vector<MoasAlarm>& alarms() const { return alarms_; }
  /// Total alarms ever recorded, compacted ones included.
  std::size_t size() const { return base_ + alarms_.size(); }
  bool empty() const { return size() == 0; }
  void clear();

  /// Number of alarms with the given cause (compacted ones included).
  std::size_t count(MoasAlarm::Cause cause) const;

  /// Number of alarms currently in the given lifecycle state (compacted
  /// ones included; they are all terminal by construction).
  std::size_t count_state(MoasAlarm::State state) const;

  /// Cap the retained window at `cap` alarms (0 = unlimited). Compaction
  /// only ever folds the oldest settled alarms; an old alarm that is still
  /// open blocks compaction behind it, so the window can exceed the cap by
  /// the number of open alarms preceding it.
  void set_retention(std::size_t cap);
  std::size_t retention() const { return retention_; }

  /// Id of the oldest retained alarm (== number of compacted alarms).
  std::size_t first_retained() const { return base_; }
  std::size_t compacted() const { return base_; }
  const std::array<std::uint64_t, 4>& compacted_by_state() const { return compacted_states_; }
  const std::array<std::uint64_t, 3>& compacted_by_cause() const { return compacted_causes_; }

  /// Checkpoint restore: seed the compaction tallies of an empty log.
  void restore_compacted(std::size_t base, const std::array<std::uint64_t, 4>& by_state,
                         const std::array<std::uint64_t, 3>& by_cause);

  /// Attach (or detach, with nullptr) the trace bus; every recorded alarm
  /// is mirrored as an AlarmRaised event. The bus must outlive the log.
  void set_trace(obs::TraceBus* bus) { trace_ = bus; }

  /// Content equality (the attached trace bus is not part of the content).
  bool operator==(const AlarmLog& other) const {
    return alarms_ == other.alarms_ && base_ == other.base_ &&
           retention_ == other.retention_ && compacted_states_ == other.compacted_states_ &&
           compacted_causes_ == other.compacted_causes_;
  }

 private:
  void maybe_compact(const FoldVisitor& on_fold = {});

  /// Serializes record()/settle(). Copies and moves of the log get a
  /// fresh mutex.
  struct Guard {
    std::mutex mutex;
    Guard() = default;
    Guard(const Guard&) {}
    Guard& operator=(const Guard&) { return *this; }
  };

  Guard guard_;
  std::vector<MoasAlarm> alarms_;
  std::size_t base_ = 0;  // ids < base_ have been compacted away
  std::size_t retention_ = 0;
  std::array<std::uint64_t, 4> compacted_states_{};  // indexed by State
  std::array<std::uint64_t, 3> compacted_causes_{};  // indexed by Cause
  obs::TraceBus* trace_ = nullptr;
};

}  // namespace moas::core
