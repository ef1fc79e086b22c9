// Degraded detector mode end to end: Pending alarms, conservative
// containment while a resolution is in flight, retroactive banning/purging on
// the answer, explicit expiry when the budget runs out — and the
// experiment-level determinism + zero-lost-alarms contracts under a seeded
// registry outage.
#include <gtest/gtest.h>

#include "moas/chaos/registry_outage.h"
#include "moas/core/detector.h"
#include "moas/core/experiment.h"
#include "moas/sim/event_queue.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

const net::Prefix kPrefix = *net::Prefix::parse("135.38.0.0/16");

/// RouterContext double whose clock is a real EventQueue, so async
/// completions observe honest timestamps.
class FakeClockContext final : public bgp::RouterContext {
 public:
  explicit FakeClockContext(sim::EventQueue& clock) : clock_(clock) {}

  bgp::Asn self() const override { return 77; }
  sim::Time current_time() const override { return clock_.now(); }
  std::size_t invalidate_origins(const net::Prefix& prefix,
                                 const AsnSet& false_origins) override {
    last_prefix = prefix;
    last_false_origins = false_origins;
    ++invalidations;
    return 1;
  }
  AsnSet accepted_origins(const net::Prefix& /*prefix*/) const override {
    return rib_origins;
  }

  AsnSet rib_origins;  // what the Adj-RIB-In already holds
  net::Prefix last_prefix;
  AsnSet last_false_origins;
  int invalidations = 0;

 private:
  sim::EventQueue& clock_;
};

bgp::Route route_from(std::vector<bgp::Asn> path, const AsnSet& list = {}) {
  bgp::Route r;
  r.prefix = kPrefix;
  r.attrs.path = bgp::AsPath(std::move(path));
  if (!list.empty()) r.attrs.communities = encode_moas_list(list);
  return r;
}

struct Harness {
  sim::EventQueue clock;
  FakeClockContext ctx{clock};
  std::shared_ptr<AlarmLog> alarms = std::make_shared<AlarmLog>();
  std::shared_ptr<PrefixOriginDb> truth = std::make_shared<PrefixOriginDb>();
  std::shared_ptr<AsyncResolver> async;

  /// Detector wired to an AsyncResolver over an oracle backend. The source
  /// knobs keep timing deterministic enough for run_until assertions.
  MoasDetector make(AsyncResolver::Config config = {},
                    AsyncResolver::SourceConfig source = tame_source()) {
    async = std::make_shared<AsyncResolver>(clock, config);
    async->add_source(std::make_shared<OracleResolver>(truth), source);
    MoasDetector detector(alarms, nullptr);
    detector.set_async_resolver(async);
    return detector;
  }

  static AsyncResolver::SourceConfig tame_source() {
    AsyncResolver::SourceConfig source;
    source.latency_mean = 0.01;
    source.timeout = 1.0;
    source.max_attempts = 8;
    source.backoff_base = 0.5;
    source.backoff_factor = 2.0;
    source.backoff_cap = 2.0;
    source.backoff_jitter = 0.0;
    source.breaker_threshold = 0;  // retries, not breaker, carry these tests
    return source;
  }
};

TEST(DegradedMode, ConflictGoesPendingThenResolves) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  // The attacker's conflicting route is ACCEPTED while investigation runs:
  // availability never regresses on a guess.
  EXPECT_TRUE(detector.accept(route_from({52}), 52, h.ctx));
  EXPECT_TRUE(detector.degraded());
  EXPECT_EQ(detector.pending_conflicts(), 1u);
  EXPECT_EQ(detector.stats().degraded_accepts, 1u);
  ASSERT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Pending);
  EXPECT_EQ(h.ctx.invalidations, 0) << "nothing is evicted before the answer";
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{});

  h.clock.run();  // the resolution completes

  EXPECT_FALSE(detector.degraded());
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Resolved);
  EXPECT_GT(h.alarms->alarms()[0].settled_at, h.alarms->alarms()[0].at);
  EXPECT_EQ(h.ctx.invalidations, 1) << "the false route is purged retroactively";
  EXPECT_EQ(h.ctx.last_false_origins, AsnSet{52});
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{1});
  // The banned origin is refused on sight from now on.
  EXPECT_FALSE(detector.accept(route_from({8, 52}), 8, h.ctx));
}

TEST(DegradedMode, RidesOutAnOutageWithoutEvicting) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  auto schedule = std::make_shared<chaos::RegistryOutageSchedule>();
  schedule->outages.push_back({0.0, 5.0, 1.0});
  h.async->set_outage_schedule(schedule);

  detector.accept(route_from({9, 1}), 9, h.ctx);
  detector.accept(route_from({52}), 52, h.ctx);
  // Attempts time out at ~1.0, 2.5, 4.5, ... while the registry is down.
  h.clock.run_until(4.0);
  EXPECT_TRUE(detector.degraded()) << "mid-outage the conflict is still open";
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Pending);
  EXPECT_EQ(h.ctx.invalidations, 0);

  h.clock.run();  // retries reach past the recovery at t=5
  EXPECT_FALSE(detector.degraded());
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Resolved);
  EXPECT_GT(h.alarms->alarms()[0].settled_at, 5.0);
  EXPECT_EQ(h.ctx.invalidations, 1);
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
}

TEST(DegradedMode, DeadlineExpiryIsExplicitNeverSilent) {
  Harness h;
  h.truth->set(kPrefix, {1});
  AsyncResolver::Config config;
  config.request_deadline = 3.0;
  config.stale_cache = false;
  // Flat 0.1s backoff keeps retries coming until the absolute deadline at
  // t=3.0 cuts the request off (rather than the attempt budget running out).
  auto source = Harness::tame_source();
  source.backoff_base = 0.1;
  source.backoff_factor = 1.0;
  source.backoff_cap = 0.1;
  auto detector = h.make(config, source);
  auto schedule = std::make_shared<chaos::RegistryOutageSchedule>();
  schedule->outages.push_back({0.0, 100.0, 1.0});
  h.async->set_outage_schedule(schedule);

  detector.accept(route_from({9, 1}), 9, h.ctx);
  detector.accept(route_from({52}), 52, h.ctx);
  h.clock.run();

  EXPECT_FALSE(detector.degraded());
  ASSERT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Expired);
  EXPECT_DOUBLE_EQ(h.alarms->alarms()[0].settled_at, 3.0);
  EXPECT_EQ(detector.stats().resolutions_failed, 1u);
  EXPECT_EQ(h.ctx.invalidations, 0) << "an unanswered conflict never purges";
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{});
  EXPECT_EQ(h.alarms->count_state(MoasAlarm::State::Pending), 0u);
}

TEST(DegradedMode, ConcurrentConflictsFoldIntoOneRequest) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  detector.accept(route_from({9, 1}), 9, h.ctx);
  detector.accept(route_from({52}), 52, h.ctx);
  detector.accept(route_from({4, 53}, {53}), 4, h.ctx);  // second liar, same prefix
  EXPECT_EQ(detector.pending_conflicts(), 1u) << "same prefix, one investigation";
  ASSERT_EQ(h.alarms->size(), 2u);

  obs::MetricsRegistry registry;
  h.async->collect_metrics(registry);
  EXPECT_EQ(registry.counter("resolver.requests"), 1u);

  h.clock.run();
  EXPECT_EQ(h.alarms->count_state(MoasAlarm::State::Resolved), 2u)
      << "both folded alarms settle together";
  EXPECT_EQ(h.ctx.invalidations, 1);
  EXPECT_EQ(h.ctx.last_false_origins, (AsnSet{52, 53}));
  EXPECT_EQ(detector.banned_origins(kPrefix), (AsnSet{52, 53}));
}

TEST(DegradedMode, EvidenceDerivedReferenceBansWithoutWitnessCrash) {
  Harness h;
  h.truth->set(kPrefix, {2});
  auto detector = h.make();
  // Cold detector, but the Adj-RIB-In already holds origin 1: the reference
  // is rebuilt from evidence with no supporting peers on record. The
  // conflicting origin (2, larger ASN) turns out to be the truth, so the
  // evidence-derived reference — asserted by an empty peer-set — is the lie.
  h.ctx.rib_origins = {1};
  EXPECT_TRUE(detector.accept(route_from({52, 2}), 52, h.ctx));
  EXPECT_TRUE(detector.degraded());
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{1});

  h.clock.run();  // must not dereference the empty peer-set's iterator
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Resolved);
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{2});
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{1});
  EXPECT_EQ(h.ctx.last_false_origins, AsnSet{1});
}

TEST(DegradedMode, LateCompletionDoesNotResurrectPrunedState) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  detector.accept(route_from({9, 1}), 9, h.ctx);
  detector.accept(route_from({52}), 52, h.ctx);
  EXPECT_TRUE(detector.degraded());

  // The supporting peer's session drops while the investigation is in
  // flight: the detector deliberately forgets the prefix.
  detector.on_peer_down(9, h.ctx);
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{});

  h.clock.run();  // the answer arrives for a prefix the detector forgot
  EXPECT_FALSE(detector.degraded());
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Resolved)
      << "the investigation concluded — the alarm settles explicitly";
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{})
      << "no state resurrection from stale peer attribution";
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{});
  EXPECT_EQ(h.ctx.invalidations, 0);
}

TEST(DegradedMode, ResetExpiresInFlightInvestigations) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  detector.accept(route_from({9, 1}), 9, h.ctx);
  detector.accept(route_from({52}), 52, h.ctx);
  EXPECT_TRUE(detector.degraded());

  detector.on_reset(h.ctx);  // the router crashed mid-investigation
  EXPECT_FALSE(detector.degraded());
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Expired);
  EXPECT_EQ(detector.stats().resolutions_failed, 1u);

  // The stale completion still arrives — the generation guard makes it a
  // no-op instead of resurrecting pre-crash state.
  h.clock.run();
  EXPECT_EQ(h.ctx.invalidations, 0);
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{});
  EXPECT_EQ(h.alarms->alarms()[0].state, MoasAlarm::State::Expired);
}

/// A ~120-AS sampled topology shared across the experiment-level tests.
const topo::AsGraph& shared_topology() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(99);
    topo::InternetConfig config;
    config.tier1 = 6;
    config.tier2 = 24;
    config.tier3 = 40;
    config.stubs = 600;
    const topo::AsGraph internet = topo::generate_internet(config, rng);
    return topo::sample_to_size(internet, 120, rng, 0.10);
  }();
  return graph;
}

ExperimentConfig outage_config() {
  ExperimentConfig config;
  config.resolver = ResolverKind::Dns;
  config.dns_unavailability = 0.2;
  config.async_resolution = AsyncResolver::Config{};
  config.async_fallback_irr = true;
  chaos::RegistryOutageConfig outage;
  outage.outages = 2.0;
  outage.outage_mean = 20.0;
  outage.spikes = 1.0;
  config.registry_outage = outage;
  config.trace_level = obs::TraceLevel::Summary;
  return config;
}

TEST(DegradedMode, ExperimentSettlesEveryAlarm) {
  Experiment experiment(shared_topology(), outage_config());
  util::Rng rng(21);
  const auto origins = experiment.draw_origins(rng);
  const auto attackers = experiment.draw_attackers(6, origins, rng);
  const RunResult result = experiment.run_with(origins, attackers, 4242);
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.alarms_pending, 0u) << "zero-lost-alarms: none pending at quiescence";
  EXPECT_EQ(result.alarms_resolved + result.alarms_expired, result.alarms)
      << "every alarm settled explicitly";
  EXPECT_FALSE(result.outage_log.empty()) << "the outage schedule is on the record";
  // The async chain is the source of truth for registry load now.
  EXPECT_GT(result.metrics.counter("resolver.requests"), 0u);
}

TEST(DegradedMode, SweepBitIdenticalAcrossJobCounts) {
  // The async resolution chain racing across the worker pool: CI runs this
  // under ThreadSanitizer as well as ASan. Every SweepPoint field is compared
  // with EXPECT_EQ — doubles included, since the contract is bit-identity.
  Experiment experiment(shared_topology(), outage_config());
  const std::vector<double> fractions = {0.05, 0.20};
  auto run_sweep = [&](std::size_t jobs) {
    util::Rng rng(7);
    return experiment.sweep(fractions, 2, 2, rng, jobs);
  };
  const auto serial = run_sweep(1);
  ASSERT_EQ(serial.size(), fractions.size());
  obs::MetricsRegistry merged;
  for (const SweepPoint& point : serial) merged.merge(point.metrics);
  EXPECT_GT(merged.counter("resolver.requests"), 0u) << "the async chain must be exercised";
  EXPECT_GT(merged.counter("detector.alarms_raised"), 0u);

  for (std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = run_sweep(jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " point " + std::to_string(i));
      const SweepPoint& e = serial[i];
      const SweepPoint& a = parallel[i];
      EXPECT_EQ(a.attacker_fraction, e.attacker_fraction);
      EXPECT_EQ(a.runs, e.runs);
      EXPECT_EQ(a.mean_adopted_false, e.mean_adopted_false);
      EXPECT_EQ(a.stddev_adopted_false, e.stddev_adopted_false);
      EXPECT_EQ(a.mean_affected, e.mean_affected);
      EXPECT_EQ(a.mean_no_route, e.mean_no_route);
      EXPECT_EQ(a.mean_alarms, e.mean_alarms);
      EXPECT_EQ(a.mean_false_alarms, e.mean_false_alarms);
      EXPECT_EQ(a.mean_structural_cutoff, e.mean_structural_cutoff);
      EXPECT_EQ(a.runs_false_route_stuck, e.runs_false_route_stuck);
      EXPECT_EQ(a.metrics, e.metrics);
    }
  }
}

}  // namespace
}  // namespace moas::core
