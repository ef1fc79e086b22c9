#include "moas/sim/event_queue.h"

#include <algorithm>

#include "moas/util/assert.h"

namespace moas::sim {

void EventQueue::schedule_at(Time t, std::function<void()> fn) {
  MOAS_REQUIRE(t >= now_, "cannot schedule into the past");
  MOAS_REQUIRE(static_cast<bool>(fn), "event callback must be callable");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_after(Time delay, std::function<void()> fn) {
  MOAS_REQUIRE(delay >= 0.0, "delay must be non-negative");
  schedule_at(now_ + delay, std::move(fn));
}

std::function<void()> EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.at;
  ++executed_;
  free_slots_.push_back(key.slot);
  return std::move(slots_[key.slot]);
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  pop()();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(Time until) {
  MOAS_REQUIRE(until >= now_, "cannot run backwards");
  std::size_t n = 0;
  // Too-late entries stay queued untouched (same seq keeps FIFO order).
  while (!heap_.empty() && heap_.front().at <= until) {
    ++n;
    pop()();
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace moas::sim
