// Fault-tolerant asynchronous origin resolution (hardening the paper's §4.4
// "check with DNS/IRR which origin is valid" step).
//
// The synchronous OriginResolver backends model *what* a registry answers;
// this layer models *how long and how reliably* the answer arrives. Every
// lookup becomes a clock-driven request with
//
//   * a seeded latency distribution per source (exponential, scaled by any
//     active chaos::RegistryOutageSchedule latency spike),
//   * a per-attempt timeout and a per-request absolute deadline,
//   * bounded retries with exponential backoff + seeded jitter,
//   * a per-source circuit breaker (trips after N consecutive failures,
//     half-opens on a cooldown timer for a single canary probe — concurrent
//     requests fail fast past it — and closes on probe success),
//   * an ordered fallback chain across independent sources
//     (e.g. DNS-MOASRR -> IRR -> cached-stale) where the first successful
//     answer resolves the request, and
//   * a cached-stale answer store of last resort.
//
// Completions are always dispatched through the simulation clock (never
// synchronously from request()), so callers — the detector's degraded mode —
// see one consistent re-entrancy-free model. All randomness comes from one
// seeded Rng and all timers from the run's own EventQueue, which keeps
// whole-run results bit-identical for any sweep job count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "moas/core/resolver.h"
#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/sim/event_queue.h"
#include "moas/util/rng.h"

namespace moas::chaos {
struct RegistryOutageSchedule;
}  // namespace moas::chaos

namespace moas::core {

/// Bucket layout of the "resolver.latency" histogram: 0.25 s buckets over
/// [0, 30) s — wide enough for a request that rides out a registry outage.
inline constexpr obs::HistogramSpec kResolverLatencySpec{0.0, 0.25, 120};

class AsyncResolver {
 public:
  /// Per-source knobs. The defaults model a healthy anycast registry:
  /// ~150 ms lookups, 1 s timeout, three attempts with 0.5/1/2 s backoff.
  struct SourceConfig {
    double latency_mean = 0.15;  // exponential lookup latency (seconds)
    double timeout = 1.0;        // per-attempt deadline
    std::size_t max_attempts = 3;  // attempts per source; 1 = no retry
    double backoff_base = 0.5;     // delay before the first retry
    double backoff_factor = 2.0;   // multiplier per further retry
    double backoff_cap = 8.0;      // retry delay ceiling
    double backoff_jitter = 0.1;   // + uniform[0, jitter) de-synchronization
    /// Circuit breaker: consecutive failures that trip it (0 disables), and
    /// how long it stays open before half-opening for one probe.
    std::size_t breaker_threshold = 4;
    double breaker_cooldown = 5.0;
  };

  struct Config {
    SourceConfig source;  // defaults for add_source() without explicit knobs
    /// Absolute per-request budget: a request that has not resolved within
    /// this many seconds of its creation expires (fate Expired).
    double request_deadline = 20.0;
    /// Keep the last resolved answer per prefix and serve it — explicitly
    /// marked stale — when no live source produced any answer at all.
    bool stale_cache = true;
    std::uint64_t seed = 17;
  };

  enum class Fate : std::uint8_t {
    Resolved,          // a source answered (or the stale cache did)
    Expired,           // request_deadline elapsed first
    SourcesExhausted,  // every source failed / breaker-skipped, no stale answer
  };

  struct Outcome {
    std::optional<bgp::AsnSet> answer;  // set only when fate == Resolved
    Fate fate = Fate::SourcesExhausted;
    std::string source;     // the source whose answer won ("stale-cache" incl.)
    double latency = 0.0;   // request creation -> completion (seconds)
    bool stale = false;     // answer served from the cached-stale store
  };

  using Callback = std::function<void(const Outcome&)>;

  enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

  /// `clock` drives every timer and completion; it must outlive the
  /// resolver (the network's event queue does).
  AsyncResolver(sim::EventQueue& clock, Config config);

  /// Append a backend to the fallback chain (first added = first tried).
  /// Returns the source index.
  std::size_t add_source(std::shared_ptr<OriginResolver> backend);
  std::size_t add_source(std::shared_ptr<OriginResolver> backend, SourceConfig config);

  /// Attach the seeded outage/latency-spike schedule (may be null). The
  /// schedule must outlive the resolver.
  void set_outage_schedule(std::shared_ptr<const chaos::RegistryOutageSchedule> schedule) {
    outage_ = std::move(schedule);
  }

  /// Attach (or detach, with nullptr) the trace bus: requests, timeouts,
  /// retries, breaker transitions, and fallbacks emit Resolver* events.
  void set_trace(obs::TraceBus* bus) { trace_ = bus; }

  /// Start a resolution. The callback fires exactly once, on the clock, at
  /// the request's completion (possibly at the current time but never
  /// re-entrantly inside this call). Returns the request id.
  std::uint64_t request(const net::Prefix& prefix, Callback callback);

  std::size_t in_flight() const { return requests_.size(); }
  BreakerState breaker_state(std::size_t source) const;

  /// Snapshot every counter into `registry` under "resolver.*" names, plus
  /// the kResolverLatencySpec "resolver.latency" histogram (the registry is
  /// the source of truth; there is no public ad-hoc stats struct). Includes
  /// each backend's own collect_metrics.
  void collect_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct Source {
    std::shared_ptr<OriginResolver> backend;
    SourceConfig config;
    std::string name;
    std::size_t consecutive_failures = 0;
    BreakerState breaker = BreakerState::Closed;
    double open_until = 0.0;  // when an Open breaker may half-open
    /// Request currently holding the single half-open canary probe (0 =
    /// none); other requests fail fast past the source while it is set.
    std::uint64_t probing_request = 0;
  };

  struct Request {
    net::Prefix prefix;
    Callback callback;
    double started = 0.0;
    double deadline = 0.0;
    std::size_t source = 0;   // chain cursor
    std::size_t attempt = 0;  // attempt within the current source
    /// Bumped on every state transition; timer events captured with an older
    /// epoch no-op (cheaper than cancelling heap entries).
    std::uint64_t epoch = 0;
  };

  void start_attempt(std::uint64_t id);
  void attempt_failed(std::uint64_t id, Request& request);
  void attempt_succeeded(std::uint64_t id, Request& request, bgp::AsnSet answer);
  void advance_source(std::uint64_t id, Request& request);
  void exhausted(std::uint64_t id, const Request& request);
  void complete(std::uint64_t id, Outcome outcome);
  void trip_breaker(Source& source);
  void note_success(Source& source);
  double backoff_delay(const SourceConfig& config, std::size_t attempt);
  void trace_event(obs::EventKind kind, const Request& request, const std::string& note,
                   std::int64_t value = 0);

  sim::EventQueue& clock_;
  Config config_;
  util::Rng rng_;
  std::vector<Source> sources_;
  std::shared_ptr<const chaos::RegistryOutageSchedule> outage_;
  obs::TraceBus* trace_ = nullptr;
  std::map<std::uint64_t, Request> requests_;
  std::uint64_t next_id_ = 1;

  /// Cached-stale store: last resolved answer per prefix, FIFO-bounded.
  std::map<net::Prefix, bgp::AsnSet> stale_cache_;
  std::vector<net::Prefix> stale_order_;

  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t attempts = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_fast_fails = 0;
    std::uint64_t breaker_half_opens = 0;
    std::uint64_t breaker_closes = 0;
    std::uint64_t outage_drops = 0;  // attempts that failed inside an outage window
    std::uint64_t resolved = 0;
    std::uint64_t expired = 0;
    std::uint64_t exhausted = 0;
    std::uint64_t stale_served = 0;
  };
  Counters counters_;
  obs::FixedHistogram latency_{kResolverLatencySpec};
};

const char* to_string(AsyncResolver::Fate fate);
const char* to_string(AsyncResolver::BreakerState state);

}  // namespace moas::core
