#include "moas/core/async_resolver.h"

#include <gtest/gtest.h>

#include <vector>

#include "moas/chaos/registry_outage.h"
#include "moas/obs/metrics.h"

namespace moas::core {
namespace {

const net::Prefix kPrefix = *net::Prefix::parse("135.38.0.0/16");

/// Backend double: fails the first `fail_first` lookups, then answers
/// `answer` (nullopt = keeps failing forever).
class ScriptedResolver final : public OriginResolver {
 public:
  explicit ScriptedResolver(std::string name) : name_(std::move(name)) {}

  std::optional<bgp::AsnSet> resolve(const net::Prefix& /*prefix*/) override {
    ++counters_.queries;
    if (fail_first > 0) {
      --fail_first;
      ++counters_.failures;
      return std::nullopt;
    }
    if (!answer) {
      ++counters_.failures;
      return std::nullopt;
    }
    return answer;
  }
  std::string name() const override { return name_; }

  std::size_t fail_first = 0;
  std::optional<bgp::AsnSet> answer;

 private:
  std::string name_;
};

std::uint64_t counter(const AsyncResolver& resolver, const std::string& name) {
  obs::MetricsRegistry registry;
  resolver.collect_metrics(registry);
  return registry.counter(name);
}

/// A source that never times out and never trips its breaker by accident.
AsyncResolver::SourceConfig fast_source() {
  AsyncResolver::SourceConfig config;
  config.latency_mean = 0.01;
  config.timeout = 1.0;
  config.backoff_base = 0.1;
  config.backoff_jitter = 0.0;
  return config;
}

struct Harness {
  sim::EventQueue clock;
  std::shared_ptr<ScriptedResolver> backend = std::make_shared<ScriptedResolver>("dns");
  std::vector<AsyncResolver::Outcome> outcomes;

  AsyncResolver make(AsyncResolver::Config config, AsyncResolver::SourceConfig source) {
    AsyncResolver resolver(clock, config);
    resolver.add_source(backend, source);
    return resolver;
  }
  AsyncResolver::Callback collect() {
    return [this](const AsyncResolver::Outcome& outcome) { outcomes.push_back(outcome); };
  }
};

TEST(AsyncResolver, ResolvesOnFirstAttempt) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1, 2};
  auto resolver = h.make({}, fast_source());
  resolver.request(kPrefix, h.collect());
  EXPECT_TRUE(h.outcomes.empty()) << "completion must go through the clock";
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  const auto& outcome = h.outcomes[0];
  EXPECT_EQ(outcome.fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(outcome.answer, (bgp::AsnSet{1, 2}));
  EXPECT_EQ(outcome.source, "dns");
  EXPECT_FALSE(outcome.stale);
  EXPECT_GT(outcome.latency, 0.0);
  EXPECT_EQ(counter(resolver, "resolver.resolved"), 1u);
  EXPECT_EQ(counter(resolver, "resolver.requests"), 1u);
  EXPECT_EQ(resolver.in_flight(), 0u);
}

TEST(AsyncResolver, RetriesWithBackoffThenSucceeds) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1};
  h.backend->fail_first = 2;
  auto source = fast_source();
  source.max_attempts = 3;
  source.breaker_threshold = 0;  // isolate the retry logic
  auto resolver = h.make({}, source);
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_EQ(h.outcomes[0].fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(counter(resolver, "resolver.retries"), 2u);
  EXPECT_EQ(counter(resolver, "resolver.attempts"), 3u);
  // Two backoffs (0.1 then 0.2) plus three lookups: latency must exceed the
  // pure backoff floor.
  EXPECT_GT(h.outcomes[0].latency, 0.3);
}

TEST(AsyncResolver, AttemptBudgetExhaustsWithoutFallback) {
  Harness h;  // backend fails forever (answer unset)
  auto source = fast_source();
  source.max_attempts = 2;
  source.breaker_threshold = 0;
  AsyncResolver::Config config;
  config.stale_cache = false;
  auto resolver = h.make(config, source);
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_EQ(h.outcomes[0].fate, AsyncResolver::Fate::SourcesExhausted);
  EXPECT_FALSE(h.outcomes[0].answer.has_value());
  EXPECT_EQ(counter(resolver, "resolver.exhausted"), 1u);
  EXPECT_EQ(counter(resolver, "resolver.attempts"), 2u);
}

TEST(AsyncResolver, SlowLookupTimesOut) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1};
  auto source = fast_source();
  source.timeout = 1e-7;  // below the latency floor: every attempt times out
  source.max_attempts = 1;
  AsyncResolver::Config config;
  config.stale_cache = false;
  auto resolver = h.make(config, source);
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_EQ(h.outcomes[0].fate, AsyncResolver::Fate::SourcesExhausted);
  EXPECT_EQ(counter(resolver, "resolver.timeouts"), 1u);
  EXPECT_EQ(counter(resolver, "resolver.queries"), 0u)
      << "a timed-out attempt never reaches the backend";
}

TEST(AsyncResolver, BreakerTripsThenFastFails) {
  Harness h;  // backend fails forever
  auto source = fast_source();
  source.max_attempts = 1;
  source.breaker_threshold = 2;
  source.breaker_cooldown = 100.0;
  AsyncResolver::Config config;
  config.stale_cache = false;
  auto resolver = h.make(config, source);

  for (int i = 0; i < 2; ++i) {
    resolver.request(kPrefix, h.collect());
    h.clock.run();
  }
  EXPECT_EQ(resolver.breaker_state(0), AsyncResolver::BreakerState::Open);
  EXPECT_EQ(counter(resolver, "resolver.breaker_trips"), 1u);

  const auto queries_before = counter(resolver, "resolver.queries");
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 3u);
  EXPECT_EQ(h.outcomes[2].fate, AsyncResolver::Fate::SourcesExhausted);
  EXPECT_EQ(counter(resolver, "resolver.breaker_fast_fails"), 1u);
  EXPECT_EQ(counter(resolver, "resolver.queries"), queries_before)
      << "an open breaker never probes the backend";
}

TEST(AsyncResolver, BreakerHalfOpensAfterCooldownAndCloses) {
  Harness h;
  auto source = fast_source();
  source.max_attempts = 1;
  source.breaker_threshold = 1;
  source.breaker_cooldown = 5.0;
  auto resolver = h.make({}, source);

  resolver.request(kPrefix, h.collect());  // fails: trips the breaker
  h.clock.run();
  EXPECT_EQ(resolver.breaker_state(0), AsyncResolver::BreakerState::Open);

  h.clock.schedule_after(6.0, [] {});  // let the cooldown elapse
  h.clock.run();
  h.backend->answer = bgp::AsnSet{1};  // the registry recovered
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 2u);
  EXPECT_EQ(h.outcomes[1].fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(resolver.breaker_state(0), AsyncResolver::BreakerState::Closed);
  EXPECT_EQ(counter(resolver, "resolver.breaker_half_opens"), 1u);
  EXPECT_EQ(counter(resolver, "resolver.breaker_closes"), 1u);
}

TEST(AsyncResolver, HalfOpenProbeFailureReopens) {
  Harness h;  // backend fails forever
  auto source = fast_source();
  source.max_attempts = 1;
  source.breaker_threshold = 1;
  source.breaker_cooldown = 5.0;
  AsyncResolver::Config config;
  config.stale_cache = false;
  auto resolver = h.make(config, source);

  resolver.request(kPrefix, h.collect());
  h.clock.run();
  h.clock.schedule_after(6.0, [] {});
  h.clock.run();
  resolver.request(kPrefix, h.collect());  // half-open probe fails
  h.clock.run();
  EXPECT_EQ(resolver.breaker_state(0), AsyncResolver::BreakerState::Open);
  EXPECT_EQ(counter(resolver, "resolver.breaker_trips"), 2u);
}

TEST(AsyncResolver, HalfOpenAdmitsSingleCanaryProbe) {
  Harness h;  // primary fails forever
  auto source = fast_source();
  source.max_attempts = 1;
  source.breaker_threshold = 1;
  source.breaker_cooldown = 5.0;
  AsyncResolver resolver(h.clock, {});
  resolver.add_source(h.backend, source);
  auto irr = std::make_shared<ScriptedResolver>("irr");
  irr->answer = bgp::AsnSet{1};
  resolver.add_source(irr, source);

  resolver.request(kPrefix, h.collect());  // dns fails, breaker trips, irr answers
  h.clock.run();
  EXPECT_EQ(resolver.breaker_state(0), AsyncResolver::BreakerState::Open);

  h.clock.schedule_after(6.0, [] {});  // the cooldown elapses
  h.clock.run();
  // Two concurrent requests hit the recovering source: exactly one becomes
  // the half-open canary; the other fails fast past it instead of piling on.
  resolver.request(kPrefix, h.collect());
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 3u);
  EXPECT_EQ(h.outcomes[1].fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(h.outcomes[2].fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(counter(resolver, "resolver.breaker_half_opens"), 1u);
  EXPECT_GE(counter(resolver, "resolver.breaker_fast_fails"), 1u);
  obs::MetricsRegistry dns_only;
  h.backend->collect_metrics(dns_only);
  EXPECT_EQ(dns_only.counter("resolver.queries"), 2u)
      << "initial failure plus one canary probe — no thundering herd";
}

TEST(AsyncResolver, FallsBackToSecondSource) {
  Harness h;  // primary fails forever
  auto source = fast_source();
  source.max_attempts = 1;
  source.breaker_threshold = 0;
  AsyncResolver clock_resolver(h.clock, {});
  clock_resolver.add_source(h.backend, source);
  auto irr = std::make_shared<ScriptedResolver>("irr");
  irr->answer = bgp::AsnSet{1};
  clock_resolver.add_source(irr, source);

  clock_resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_EQ(h.outcomes[0].fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(h.outcomes[0].source, "irr");
  EXPECT_EQ(counter(clock_resolver, "resolver.fallbacks"), 1u);
}

TEST(AsyncResolver, StaleCacheServesWhenAllSourcesFail) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1, 2};
  auto source = fast_source();
  source.max_attempts = 1;
  source.breaker_threshold = 0;
  auto resolver = h.make({}, source);

  resolver.request(kPrefix, h.collect());  // resolves; deposits the answer
  h.clock.run();
  h.backend->answer.reset();  // registry goes dark
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 2u);
  EXPECT_EQ(h.outcomes[1].fate, AsyncResolver::Fate::Resolved);
  EXPECT_EQ(h.outcomes[1].answer, (bgp::AsnSet{1, 2}));
  EXPECT_TRUE(h.outcomes[1].stale);
  EXPECT_EQ(h.outcomes[1].source, "stale-cache");
  EXPECT_EQ(counter(resolver, "resolver.stale_served"), 1u);
}

TEST(AsyncResolver, DeadlineExpiresRequestDuringOutage) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1};
  auto source = fast_source();
  source.max_attempts = 10;
  source.breaker_threshold = 0;
  AsyncResolver::Config config;
  config.request_deadline = 2.5;
  config.stale_cache = false;
  auto resolver = h.make(config, source);

  auto schedule = std::make_shared<chaos::RegistryOutageSchedule>();
  schedule->outages.push_back({0.0, 1000.0, 1.0});  // everything down, forever
  resolver.set_outage_schedule(schedule);

  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_EQ(h.outcomes[0].fate, AsyncResolver::Fate::Expired);
  EXPECT_DOUBLE_EQ(h.outcomes[0].latency, 2.5);
  EXPECT_EQ(counter(resolver, "resolver.expired"), 1u);
  EXPECT_GE(counter(resolver, "resolver.outage_drops"), 1u);
  EXPECT_EQ(counter(resolver, "resolver.queries"), 0u)
      << "a down registry answers nothing";
}

TEST(AsyncResolver, RetriesRideOutAnOutageWindow) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1};
  auto source = fast_source();
  source.timeout = 1.0;
  source.max_attempts = 8;
  source.backoff_base = 0.5;
  source.backoff_cap = 2.0;
  source.breaker_threshold = 0;
  AsyncResolver::Config config;
  config.request_deadline = 30.0;
  config.stale_cache = false;
  auto resolver = h.make(config, source);

  auto schedule = std::make_shared<chaos::RegistryOutageSchedule>();
  schedule->outages.push_back({0.0, 5.0, 1.0});
  resolver.set_outage_schedule(schedule);

  resolver.request(kPrefix, h.collect());
  h.clock.run();
  ASSERT_EQ(h.outcomes.size(), 1u);
  EXPECT_EQ(h.outcomes[0].fate, AsyncResolver::Fate::Resolved);
  EXPECT_GT(h.outcomes[0].latency, 5.0) << "the answer could only arrive after recovery";
  EXPECT_GE(counter(resolver, "resolver.retries"), 3u);
}

TEST(AsyncResolver, LatencyHistogramRecordsCompletions) {
  Harness h;
  h.backend->answer = bgp::AsnSet{1};
  auto resolver = h.make({}, fast_source());
  resolver.request(kPrefix, h.collect());
  resolver.request(kPrefix, h.collect());
  h.clock.run();
  obs::MetricsRegistry registry;
  resolver.collect_metrics(registry);
  const obs::FixedHistogram* latency = registry.find_histogram("resolver.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_EQ(latency->spec(), kResolverLatencySpec);
}

TEST(AsyncResolver, DeterministicForEqualSeeds) {
  auto run = [] {
    Harness h;
    h.backend->answer = bgp::AsnSet{1};
    h.backend->fail_first = 3;
    auto source = fast_source();
    source.max_attempts = 5;
    source.backoff_jitter = 0.25;  // jitter comes from the seeded Rng
    AsyncResolver::Config config;
    config.seed = 42;
    auto resolver = h.make(config, source);
    for (int i = 0; i < 4; ++i) resolver.request(kPrefix, h.collect());
    h.clock.run();
    std::vector<double> latencies;
    for (const auto& outcome : h.outcomes) latencies.push_back(outcome.latency);
    return latencies;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b) << "same seed, same latency draws, bit-identical";
}

TEST(AsyncResolver, Validation) {
  sim::EventQueue clock;
  AsyncResolver::Config bad;
  bad.request_deadline = 0.0;
  EXPECT_THROW(AsyncResolver(clock, bad), std::invalid_argument);
  AsyncResolver resolver(clock, {});
  EXPECT_THROW(resolver.add_source(nullptr), std::invalid_argument);
  EXPECT_THROW(resolver.request(kPrefix, [](const auto&) {}), std::invalid_argument)
      << "a request needs at least one source";
  EXPECT_THROW(resolver.breaker_state(0), std::invalid_argument);
}

}  // namespace
}  // namespace moas::core
