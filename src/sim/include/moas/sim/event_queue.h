// Discrete-event simulation engine.
//
// A single-threaded event queue with a virtual clock. Events scheduled for
// the same instant run in scheduling order (stable), which makes simulations
// deterministic for a fixed seed. Events may schedule further events while
// running.
//
// Storage: the heap orders 24-byte POD keys {at, seq, slot}; the callbacks
// sit in a slab of recycled slots the keys point into, so a sift moves no
// std::function. A callback is moved out of its slot (and the slot freed)
// before it runs, which keeps reentrant scheduling safe even when it grows
// the slab.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace moas::sim {

/// Virtual time in seconds.
using Time = double;

class EventQueue {
 public:
  /// Current virtual time; advances as events are executed.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  void schedule_at(Time t, std::function<void()> fn);

  /// Schedule `fn` at now() + delay (delay must be >= 0).
  void schedule_after(Time delay, std::function<void()> fn);

  /// Run the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Run events until the queue drains or `max_events` have executed.
  /// Returns the number of events executed. A simulation that fails to
  /// quiesce within the cap is a bug in the model; callers check the count.
  std::size_t run(std::size_t max_events = std::numeric_limits<std::size_t>::max());

  /// Run events with timestamps <= `until` (inclusive); later events stay
  /// queued and now() advances to `until`.
  std::size_t run_until(Time until);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Total number of events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_; }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;   // scheduling order
    std::uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };

  /// Pops the earliest key, advances the clock to it, and moves its
  /// callback out of the (then recycled) slot.
  std::function<void()> pop();

  std::vector<Key> heap_;  // binary min-heap under Later
  std::vector<std::function<void()>> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace moas::sim
