// Discrete-event simulation engine.
//
// A single-threaded event queue with a virtual clock. Events scheduled for
// the same instant run in scheduling order (stable), which makes simulations
// deterministic for a fixed seed. Events may schedule further events while
// running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
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
  struct Entry {
    Time at;
    std::uint64_t seq;  // scheduling order
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };

  /// Pops the earliest entry, moving its callback out.
  Entry pop();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace moas::sim
