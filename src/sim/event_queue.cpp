#include "moas/sim/event_queue.h"

#include "moas/util/assert.h"

namespace moas::sim {

void EventQueue::schedule_at(Time t, std::function<void()> fn) {
  MOAS_REQUIRE(t >= now_, "cannot schedule into the past");
  MOAS_REQUIRE(static_cast<bool>(fn), "event callback must be callable");
  heap_.push(Entry{t, next_seq_++, std::move(fn)});
}

void EventQueue::schedule_after(Time delay, std::function<void()> fn) {
  MOAS_REQUIRE(delay >= 0.0, "delay must be non-negative");
  schedule_at(now_ + delay, std::move(fn));
}

EventQueue::Entry EventQueue::pop() {
  // priority_queue::top() is const&; the entry is logically owned by us,
  // so move the callback out before popping.
  Entry& top = const_cast<Entry&>(heap_.top());
  Entry out{top.at, top.seq, std::move(top.fn)};
  heap_.pop();
  return out;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  Entry e = pop();
  now_ = e.at;
  ++executed_;
  e.fn();
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
  while (!heap_.empty() && heap_.top().at <= until) {
    Entry e = pop();
    now_ = e.at;
    ++executed_;
    ++n;
    e.fn();
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace moas::sim
