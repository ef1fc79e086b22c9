#include "moas/core/alarm.h"

#include <algorithm>

#include "moas/core/moas_list.h"
#include "moas/util/assert.h"

namespace moas::core {

const char* to_string(MoasAlarm::Cause cause) {
  switch (cause) {
    case MoasAlarm::Cause::ListMismatch: return "list-mismatch";
    case MoasAlarm::Cause::OriginNotInList: return "origin-not-in-list";
    case MoasAlarm::Cause::BannedOriginSeen: return "banned-origin-seen";
  }
  return "?";
}

const char* to_string(MoasAlarm::State state) {
  switch (state) {
    case MoasAlarm::State::Raised: return "raised";
    case MoasAlarm::State::Pending: return "pending";
    case MoasAlarm::State::Resolved: return "resolved";
    case MoasAlarm::State::Expired: return "expired";
  }
  return "?";
}

void AlarmLog::settle(std::size_t id, MoasAlarm::State state, sim::Time at) {
  const std::scoped_lock lock(guard_.mutex);
  MOAS_REQUIRE(id >= base_, "settling an alarm that was already compacted");
  MOAS_REQUIRE(id - base_ < alarms_.size(), "settling an alarm that was never recorded");
  MOAS_REQUIRE(state != MoasAlarm::State::Raised, "cannot settle back to Raised");
  MoasAlarm& alarm = alarms_[id - base_];
  MOAS_REQUIRE(alarm.state == MoasAlarm::State::Raised ||
                   alarm.state == MoasAlarm::State::Pending,
               "alarm already reached a terminal state");
  alarm.state = state;
  if (state != MoasAlarm::State::Pending) alarm.settled_at = at;
}

void AlarmLog::clear() {
  alarms_.clear();
  base_ = 0;
  compacted_states_.fill(0);
  compacted_causes_.fill(0);
}

void AlarmLog::set_retention(std::size_t cap) {
  retention_ = cap;
  maybe_compact();
}

void AlarmLog::restore_compacted(std::size_t base, const std::array<std::uint64_t, 4>& by_state,
                                 const std::array<std::uint64_t, 3>& by_cause) {
  MOAS_REQUIRE(alarms_.empty() && base_ == 0, "restore_compacted needs a fresh log");
  base_ = base;
  compacted_states_ = by_state;
  compacted_causes_ = by_cause;
}

void AlarmLog::maybe_compact(const FoldVisitor& on_fold) {
  if (retention_ == 0 || alarms_.size() <= retention_) return;
  // Fold the longest settled prefix of the window, oldest first; stop at
  // the first still-open alarm (ids must stay dense) or once back at cap.
  std::size_t fold = 0;
  while (alarms_.size() - fold > retention_ &&
         (alarms_[fold].state == MoasAlarm::State::Resolved ||
          alarms_[fold].state == MoasAlarm::State::Expired)) {
    ++compacted_states_[static_cast<std::size_t>(alarms_[fold].state)];
    ++compacted_causes_[static_cast<std::size_t>(alarms_[fold].cause)];
    if (on_fold) on_fold(alarms_[fold]);
    ++fold;
  }
  if (fold == 0) return;
  alarms_.erase(alarms_.begin(), alarms_.begin() + static_cast<std::ptrdiff_t>(fold));
  base_ += fold;
}

std::string MoasAlarm::to_string() const {
  std::string out = "MOAS alarm at AS" + std::to_string(observer) + " for " +
                    prefix.to_string() + " (" + core::to_string(cause) + "): reference " +
                    list_to_string(reference_list) + " vs observed " +
                    list_to_string(observed_list);
  if (!offending_origins.empty()) {
    out += ", offending origins " + list_to_string(offending_origins);
  }
  return out;
}

std::size_t AlarmLog::count(MoasAlarm::Cause cause) const {
  return static_cast<std::size_t>(
             std::count_if(alarms_.begin(), alarms_.end(),
                           [cause](const MoasAlarm& a) { return a.cause == cause; })) +
         compacted_causes_[static_cast<std::size_t>(cause)];
}

std::size_t AlarmLog::count_state(MoasAlarm::State state) const {
  return static_cast<std::size_t>(
             std::count_if(alarms_.begin(), alarms_.end(),
                           [state](const MoasAlarm& a) { return a.state == state; })) +
         compacted_states_[static_cast<std::size_t>(state)];
}

}  // namespace moas::core
