#include "moas/core/async_resolver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "moas/chaos/registry_outage.h"
#include "moas/util/assert.h"

namespace moas::core {

namespace {

/// The cached-stale store holds at most this many prefixes (FIFO eviction).
constexpr std::size_t kStaleCacheMax = 1 << 12;

/// Exponential draw with the given mean, floored away from zero so a lookup
/// always takes observable time (same idiom as the chaos schedules).
double exponential(util::Rng& rng, double mean) {
  const double u = rng.uniform01();
  return std::max(1e-6, -mean * std::log1p(-u));
}

}  // namespace

const char* to_string(AsyncResolver::Fate fate) {
  switch (fate) {
    case AsyncResolver::Fate::Resolved: return "resolved";
    case AsyncResolver::Fate::Expired: return "expired";
    case AsyncResolver::Fate::SourcesExhausted: return "sources-exhausted";
  }
  return "?";
}

const char* to_string(AsyncResolver::BreakerState state) {
  switch (state) {
    case AsyncResolver::BreakerState::Closed: return "closed";
    case AsyncResolver::BreakerState::Open: return "open";
    case AsyncResolver::BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

AsyncResolver::AsyncResolver(sim::EventQueue& clock, Config config)
    : clock_(clock), config_(config), rng_(config.seed) {
  MOAS_REQUIRE(config_.request_deadline > 0.0, "request deadline must be positive");
}

std::size_t AsyncResolver::add_source(std::shared_ptr<OriginResolver> backend) {
  return add_source(std::move(backend), config_.source);
}

std::size_t AsyncResolver::add_source(std::shared_ptr<OriginResolver> backend,
                                      SourceConfig config) {
  MOAS_REQUIRE(backend != nullptr, "fallback chain entries must be non-null");
  MOAS_REQUIRE(config.latency_mean > 0.0 && config.timeout > 0.0,
               "source latency/timeout must be positive");
  MOAS_REQUIRE(config.max_attempts >= 1, "a source gets at least one attempt");
  Source source;
  source.name = backend->name();
  source.backend = std::move(backend);
  source.config = config;
  sources_.push_back(std::move(source));
  return sources_.size() - 1;
}

AsyncResolver::BreakerState AsyncResolver::breaker_state(std::size_t source) const {
  MOAS_REQUIRE(source < sources_.size(), "breaker_state: no such source");
  return sources_[source].breaker;
}

void AsyncResolver::trace_event(obs::EventKind kind, const Request& request,
                                const std::string& note, std::int64_t value) {
  if (!obs::trace_wants(trace_, obs::TraceLevel::Summary)) return;
  trace_->emit(obs::TraceEvent(kind, /*actor=*/0)
                   .with_prefix(request.prefix)
                   .with_note(note)
                   .with_values(value));
}

std::uint64_t AsyncResolver::request(const net::Prefix& prefix, Callback callback) {
  MOAS_REQUIRE(!sources_.empty(), "async resolver needs at least one source");
  MOAS_REQUIRE(callback != nullptr, "async resolution needs a completion callback");
  const std::uint64_t id = next_id_++;
  Request request;
  request.prefix = prefix;
  request.callback = std::move(callback);
  request.started = clock_.now();
  request.deadline = request.started + config_.request_deadline;
  const double deadline = request.deadline;
  requests_.emplace(id, std::move(request));
  ++counters_.requests;
  // The absolute budget: whatever state the request is in when this fires,
  // it expires. A request that completed earlier erased its map entry, so
  // the timer no-ops.
  clock_.schedule_at(deadline, [this, id] {
    auto it = requests_.find(id);
    if (it == requests_.end()) return;
    complete(id, Outcome{std::nullopt, Fate::Expired, {}, 0.0, false});
  });
  // start_attempt never invokes the callback synchronously (complete()
  // defers it through the clock), so starting inline is re-entrancy-safe.
  start_attempt(id);
  return id;
}

void AsyncResolver::start_attempt(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  Request& request = it->second;
  if (request.source >= sources_.size()) {
    exhausted(id, request);
    return;
  }
  Source& source = sources_[request.source];
  const double now = clock_.now();

  if (source.breaker == BreakerState::Open) {
    if (now < source.open_until) {
      // Fail fast: don't burn the request's deadline probing a source that
      // is known-down; move along the chain immediately.
      ++counters_.breaker_fast_fails;
      advance_source(id, request);
      return;
    }
    source.breaker = BreakerState::HalfOpen;
    source.probing_request = id;
    ++counters_.breaker_half_opens;
    trace_event(obs::EventKind::ResolverBreaker, request,
                source.name + ":half-open");
  } else if (source.breaker == BreakerState::HalfOpen) {
    if (source.probing_request != 0 && source.probing_request != id) {
      // One canary at a time: while another request's half-open probe is in
      // flight, everyone else fails fast down the chain instead of piling a
      // thundering herd onto a source that is barely recovering.
      ++counters_.breaker_fast_fails;
      advance_source(id, request);
      return;
    }
    // The previous canary's request expired mid-probe: claim the probe.
    source.probing_request = id;
  }

  ++counters_.attempts;
  trace_event(obs::EventKind::ResolverRequest, request, source.name,
              static_cast<std::int64_t>(request.attempt + 1));

  double latency = exponential(rng_, source.config.latency_mean);
  bool lost = false;
  if (outage_ != nullptr) {
    latency *= outage_->latency_factor(now);
    lost = outage_->down(now);
  }
  const std::uint64_t epoch = ++request.epoch;

  if (lost || latency > source.config.timeout) {
    if (lost) ++counters_.outage_drops;
    // The answer never arrives (outage) or arrives too late (slow lookup):
    // either way the caller sees a timeout after the full per-attempt wait.
    clock_.schedule_after(source.config.timeout, [this, id, epoch] {
      auto it = requests_.find(id);
      if (it == requests_.end() || it->second.epoch != epoch) return;
      ++counters_.timeouts;
      trace_event(obs::EventKind::ResolverTimeout, it->second,
                  sources_[it->second.source].name);
      attempt_failed(id, it->second);
    });
    return;
  }

  clock_.schedule_after(latency, [this, id, epoch] {
    auto it = requests_.find(id);
    if (it == requests_.end() || it->second.epoch != epoch) return;
    Request& request = it->second;
    auto answer = sources_[request.source].backend->resolve(request.prefix);
    if (answer) {
      attempt_succeeded(id, request, std::move(*answer));
    } else {
      attempt_failed(id, request);
    }
  });
}

void AsyncResolver::trip_breaker(Source& source) {
  source.breaker = BreakerState::Open;
  source.open_until = clock_.now() + source.config.breaker_cooldown;
  ++counters_.breaker_trips;
}

void AsyncResolver::note_success(Source& source) {
  source.consecutive_failures = 0;
  if (source.breaker != BreakerState::Closed) {
    source.breaker = BreakerState::Closed;
    ++counters_.breaker_closes;
  }
}

double AsyncResolver::backoff_delay(const SourceConfig& config, std::size_t attempt) {
  double delay = config.backoff_base;
  for (std::size_t i = 0; i < attempt && delay < config.backoff_cap; ++i) {
    delay *= config.backoff_factor;
  }
  delay = std::min(delay, config.backoff_cap);
  if (config.backoff_jitter > 0.0) delay += rng_.uniform01() * config.backoff_jitter;
  return delay;
}

void AsyncResolver::attempt_failed(std::uint64_t id, Request& request) {
  Source& source = sources_[request.source];
  if (source.probing_request == id) source.probing_request = 0;
  ++source.consecutive_failures;

  bool tripped = false;
  if (source.breaker == BreakerState::HalfOpen) {
    // The probe failed: straight back to Open for another cooldown.
    trip_breaker(source);
    trace_event(obs::EventKind::ResolverBreaker, request, source.name + ":open");
    tripped = true;
  } else if (source.config.breaker_threshold > 0 &&
             source.consecutive_failures >= source.config.breaker_threshold &&
             source.breaker == BreakerState::Closed) {
    trip_breaker(source);
    trace_event(obs::EventKind::ResolverBreaker, request, source.name + ":open");
    tripped = true;
  }

  const double backoff = backoff_delay(source.config, request.attempt);
  const bool attempts_left = request.attempt + 1 < source.config.max_attempts;
  const bool budget_left = clock_.now() + backoff < request.deadline;
  if (!tripped && attempts_left && budget_left) {
    ++request.attempt;
    ++counters_.retries;
    trace_event(obs::EventKind::ResolverRetry, request, source.name,
                static_cast<std::int64_t>(request.attempt + 1));
    const std::uint64_t epoch = ++request.epoch;
    clock_.schedule_after(backoff, [this, id, epoch] {
      auto it = requests_.find(id);
      if (it == requests_.end() || it->second.epoch != epoch) return;
      start_attempt(id);
    });
    return;
  }
  advance_source(id, request);
}

void AsyncResolver::attempt_succeeded(std::uint64_t id, Request& request,
                                      bgp::AsnSet answer) {
  Source& source = sources_[request.source];
  if (source.probing_request == id) source.probing_request = 0;
  const bool was_open = source.breaker != BreakerState::Closed;
  note_success(source);
  if (was_open) {
    trace_event(obs::EventKind::ResolverBreaker, request, source.name + ":closed");
  }
  complete(id, Outcome{std::move(answer), Fate::Resolved, source.name, 0.0, false});
}

void AsyncResolver::advance_source(std::uint64_t id, Request& request) {
  ++request.source;
  request.attempt = 0;
  ++request.epoch;  // orphan any timer still pointed at the old source
  if (request.source >= sources_.size()) {
    exhausted(id, request);
    return;
  }
  ++counters_.fallbacks;
  trace_event(obs::EventKind::ResolverFallback, request,
              sources_[request.source].name);
  start_attempt(id);
}

void AsyncResolver::exhausted(std::uint64_t id, const Request& request) {
  if (config_.stale_cache) {
    // Last resort only when no live source produced any answer at all.
    auto it = stale_cache_.find(request.prefix);
    if (it != stale_cache_.end()) {
      ++counters_.stale_served;
      complete(id, Outcome{it->second, Fate::Resolved, "stale-cache", 0.0, true});
      return;
    }
  }
  complete(id, Outcome{std::nullopt, Fate::SourcesExhausted, {}, 0.0, false});
}

void AsyncResolver::complete(std::uint64_t id, Outcome outcome) {
  auto it = requests_.find(id);
  MOAS_REQUIRE(it != requests_.end(), "completing a request that is not in flight");
  Request request = std::move(it->second);
  requests_.erase(it);
  // If this request held a half-open probe (e.g. its deadline expired while
  // the probe was still in flight), release it so the next request through
  // the chain can become the canary instead of the breaker wedging.
  for (Source& source : sources_) {
    if (source.probing_request == id) source.probing_request = 0;
  }

  outcome.latency = clock_.now() - request.started;
  latency_.add(outcome.latency);
  switch (outcome.fate) {
    case Fate::Resolved: ++counters_.resolved; break;
    case Fate::Expired: ++counters_.expired; break;
    case Fate::SourcesExhausted: ++counters_.exhausted; break;
  }

  if (outcome.fate == Fate::Resolved && !outcome.stale && config_.stale_cache &&
      outcome.answer.has_value()) {
    auto [entry, inserted] = stale_cache_.insert_or_assign(request.prefix, *outcome.answer);
    (void)entry;
    if (inserted) {
      stale_order_.push_back(request.prefix);
      if (stale_cache_.size() > kStaleCacheMax) {
        stale_cache_.erase(stale_order_.front());
        stale_order_.erase(stale_order_.begin());
      }
    }
  }

  // Deliver through the clock so completions are never re-entrant: the
  // callback runs after the current event finishes, at the same timestamp.
  clock_.schedule_after(0.0, [callback = std::move(request.callback),
                              outcome = std::move(outcome)] { callback(outcome); });
}

void AsyncResolver::collect_metrics(obs::MetricsRegistry& registry) const {
  for (const Source& source : sources_) {
    source.backend->collect_metrics(registry);
  }
  registry.count("resolver.requests", counters_.requests);
  registry.count("resolver.attempts", counters_.attempts);
  registry.count("resolver.timeouts", counters_.timeouts);
  registry.count("resolver.retries", counters_.retries);
  registry.count("resolver.fallbacks", counters_.fallbacks);
  registry.count("resolver.breaker_trips", counters_.breaker_trips);
  registry.count("resolver.breaker_fast_fails", counters_.breaker_fast_fails);
  registry.count("resolver.breaker_half_opens", counters_.breaker_half_opens);
  registry.count("resolver.breaker_closes", counters_.breaker_closes);
  registry.count("resolver.outage_drops", counters_.outage_drops);
  registry.count("resolver.resolved", counters_.resolved);
  registry.count("resolver.expired", counters_.expired);
  registry.count("resolver.exhausted", counters_.exhausted);
  registry.count("resolver.stale_served", counters_.stale_served);
  registry.histogram("resolver.latency", kResolverLatencySpec).merge(latency_);
}

}  // namespace moas::core
