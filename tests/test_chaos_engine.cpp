// The chaos engine: deterministic replay, invariant-clean fault batches,
// and the crash/restart re-convergence property.
#include <gtest/gtest.h>

#include <string>

#include "moas/chaos/engine.h"
#include "moas/chaos/invariants.h"
#include "moas/chaos/schedule.h"

namespace moas::chaos {
namespace {

using bgp::Asn;
using bgp::Network;

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

Network diamond(std::uint64_t seed = 1) {
  Network::Config config;
  config.seed = seed;
  Network network(config);
  for (Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(1, 3);
  network.connect(2, 4);
  network.connect(3, 4);
  return network;
}

/// Canonical textual dump of every router's Loc-RIB (the "final RIB state"
/// the determinism guarantee covers).
std::string rib_snapshot(const Network& network) {
  std::string out;
  for (Asn asn : network.asns()) {
    out += std::to_string(asn) + ":\n";
    const bgp::Router& router = network.router(asn);
    for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
      const bgp::RibEntry* entry = router.loc_rib().best(prefix);
      out += "  " + entry->route.to_string() + " via " +
             std::to_string(entry->learned_from) + "\n";
    }
  }
  return out;
}

void check_with_exclusions(const Network& network, const ChaosEngine& engine) {
  NetworkInvariantChecker checker;
  for (const auto& [from, to] : engine.dirty_links()) checker.exclude_direction(from, to);
  checker.require_clean(network);
}

ScheduleConfig churn_config(std::uint64_t seed) {
  ScheduleConfig config;
  config.seed = seed;
  config.horizon = 120.0;
  config.flaps_per_link = 2.0;
  config.downtime_mean = 3.0;
  config.session_resets_per_link = 1.0;
  config.crashes_per_router = 0.5;
  config.restart_delay_mean = 4.0;
  config.msg_drop = 0.02;
  config.msg_reorder = 0.02;
  return config;
}

struct ArmedRunOutcome {
  std::string fault_log;
  std::string ribs;
};

/// Originate two prefixes, arm the full schedule, run everything to
/// quiescence, audit invariants, return the replay log and final RIBs.
ArmedRunOutcome armed_run(std::uint64_t seed) {
  Network network = diamond(seed);
  ChaosEngine engine(network,
                     compile_schedule(churn_config(seed), network.links(), network.asns()));
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.router(4).originate(pfx("20.0.0.0/8"));
  engine.arm();
  EXPECT_TRUE(network.run_to_quiescence());
  check_with_exclusions(network, engine);
  return {engine.log_text(), rib_snapshot(network)};
}

TEST(ChaosEngine, ReplayIsDeterministic) {
  const ArmedRunOutcome first = armed_run(42);
  const ArmedRunOutcome second = armed_run(42);
  EXPECT_EQ(first.fault_log, second.fault_log) << "fault log must be byte-identical";
  EXPECT_EQ(first.ribs, second.ribs) << "final RIB state must be identical";
  EXPECT_FALSE(first.fault_log.empty());
}

TEST(ChaosEngine, DifferentSeedsExploreDifferentFaults) {
  const ArmedRunOutcome a = armed_run(42);
  const ArmedRunOutcome b = armed_run(43);
  EXPECT_NE(a.fault_log, b.fault_log);
}

TEST(ChaosEngine, ArmedScheduleRecoversToValidRouting) {
  // After the full schedule (all recoveries inside the horizon), routing
  // must be back: every router reaches both prefixes.
  Network network = diamond(7);
  ChaosEngine engine(network,
                     compile_schedule(churn_config(7), network.links(), network.asns()));
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.router(4).originate(pfx("20.0.0.0/8"));
  engine.arm();
  ASSERT_TRUE(network.run_to_quiescence());
  for (Asn asn : network.asns()) {
    EXPECT_NE(network.router(asn).best(pfx("10.0.0.0/8")), nullptr) << "AS" << asn;
    EXPECT_NE(network.router(asn).best(pfx("20.0.0.0/8")), nullptr) << "AS" << asn;
  }
  EXPECT_GT(engine.stats().link_downs + engine.stats().session_resets + engine.stats().crashes,
            0u);
}

TEST(ChaosEngine, BatchModeKeepsInvariantsBetweenBatches) {
  Network network = diamond(3);
  ScheduleConfig config = churn_config(3);
  config.msg_drop = config.msg_reorder = 0.0;  // discrete faults only
  ChaosEngine engine(network,
                     compile_schedule(config, network.links(), network.asns()));
  network.router(1).originate(pfx("10.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());

  std::size_t batches = 0;
  while (engine.apply_batch(3) > 0) {
    ASSERT_TRUE(network.run_to_quiescence());
    check_with_exclusions(network, engine);
    ++batches;
  }
  EXPECT_TRUE(engine.exhausted());
  EXPECT_GT(batches, 0u);
  // Everything recovered: full reachability again.
  for (Asn asn : network.asns()) {
    EXPECT_NE(network.router(asn).best(pfx("10.0.0.0/8")), nullptr) << "AS" << asn;
  }
}

/// Crash/restart property: a router that crashes and cold-restarts must
/// re-converge to exactly the Loc-RIB of a run where it never crashed.
class CrashRestartProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashRestartProperty, RestartReconvergesToBaseline) {
  const std::uint64_t seed = GetParam();
  for (Asn victim : {1u, 2u, 4u}) {
    auto build = [&] {
      Network network = diamond(seed);
      // Order-independent tie-breaks so both runs reach the same fixed
      // point regardless of message timing.
      for (Asn asn : network.asns()) network.router(asn).set_prefer_established(false);
      network.router(1).originate(pfx("10.0.0.0/8"));
      network.router(4).originate(pfx("20.0.0.0/8"));
      return network;
    };

    Network baseline = build();
    ASSERT_TRUE(baseline.run_to_quiescence());

    Network crashed = build();
    ASSERT_TRUE(crashed.run_to_quiescence());
    crashed.crash_router(victim);
    ASSERT_TRUE(crashed.run_to_quiescence());
    EXPECT_TRUE(crashed.router_crashed(victim));
    crashed.restart_router(victim);
    ASSERT_TRUE(crashed.run_to_quiescence());

    EXPECT_EQ(rib_snapshot(crashed), rib_snapshot(baseline))
        << "seed " << seed << ", crashed AS" << victim;
    NetworkInvariantChecker checker;
    checker.require_clean(crashed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRestartProperty, ::testing::Values(1, 2, 3, 7, 11));

ScheduleConfig corruption_only(std::uint64_t seed) {
  ScheduleConfig config;
  config.seed = seed;
  config.horizon = 30.0;
  config.attr_corruptions_per_link = 2.0;
  return config;
}

/// Armed corruptions only fire when an announcement crosses their direction,
/// so keep announcements flowing across the horizon: routers 1 and 4
/// alternate fresh originations every couple of seconds.
void drive_traffic(Network& network) {
  for (int i = 0; i < 14; ++i) {
    const Asn origin = (i % 2 == 0) ? 1u : 4u;
    const std::string text = "10." + std::to_string(i + 1) + ".0.0/16";
    network.clock().schedule_after(2.0 * (i + 1), [&network, origin, text] {
      network.router(origin).originate(*net::Prefix::parse(text));
    });
  }
}

TEST(ChaosEngine, ScheduledCorruptionResetsSessionsUnderStrict4271) {
  Network network = diamond(17);
  ChaosEngine engine(network,
                     compile_schedule(corruption_only(17), network.links(), network.asns()));
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.router(4).originate(pfx("20.0.0.0/8"));
  drive_traffic(network);
  engine.arm();
  ASSERT_TRUE(network.run_to_quiescence());

  const ChaosEngine::Stats& stats = engine.stats();
  ASSERT_GT(stats.attr_corruptions_applied, 0u);
  // Strict 4271: every landed corruption is a NOTIFICATION + session reset.
  EXPECT_EQ(stats.corrupt_session_resets, stats.attr_corruptions_applied);
  EXPECT_EQ(stats.treat_as_withdraws, 0u);
  EXPECT_EQ(stats.attr_discards, 0u);
  // The resets heal: full reachability and a clean audit afterwards.
  for (Asn asn : network.asns()) {
    EXPECT_NE(network.router(asn).best(pfx("10.0.0.0/8")), nullptr) << "AS" << asn;
  }
  check_with_exclusions(network, engine);
}

TEST(ChaosEngine, ScheduledCorruptionDegradesWithoutResetsUnder7606) {
  Network::Config net_config;
  net_config.seed = 17;
  net_config.revised_error_handling = true;
  Network network(net_config);
  for (Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(1, 3);
  network.connect(2, 4);
  network.connect(3, 4);
  ChaosEngine engine(network,
                     compile_schedule(corruption_only(17), network.links(), network.asns()));
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.router(4).originate(pfx("20.0.0.0/8"));
  drive_traffic(network);
  engine.arm();
  ASSERT_TRUE(network.run_to_quiescence());

  const ChaosEngine::Stats& stats = engine.stats();
  ASSERT_GT(stats.attr_corruptions_applied, 0u);
  // RFC 7606: attribute-confined damage never resets a session; every
  // landed corruption degrades to treat-as-withdraw or attribute-discard,
  // and each treat-as-withdraw triggers a route-refresh recovery.
  EXPECT_EQ(stats.corrupt_session_resets, 0u);
  EXPECT_EQ(stats.treat_as_withdraws + stats.attr_discards, stats.attr_corruptions_applied);
  EXPECT_EQ(stats.route_refreshes_requested, stats.treat_as_withdraws);
  // The refresh heals every treat-as-withdrawn hole: full reachability.
  for (Asn asn : network.asns()) {
    EXPECT_NE(network.router(asn).best(pfx("10.0.0.0/8")), nullptr) << "AS" << asn;
    EXPECT_NE(network.router(asn).best(pfx("20.0.0.0/8")), nullptr) << "AS" << asn;
  }
  // The corruption invariant family holds: no resets in revised mode, and
  // no corrupted MOAS list anywhere in any RIB.
  NetworkInvariantChecker checker;
  register_corruption_invariants(checker, engine);
  for (const auto& [from, to] : engine.dirty_links()) checker.exclude_direction(from, to);
  checker.require_clean(network);
}

TEST(ChaosEngine, CrashDropsInFlightAndState) {
  Network network = diamond(9);
  network.router(1).originate(pfx("10.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());
  ASSERT_NE(network.router(2).best(pfx("10.0.0.0/8")), nullptr);

  network.crash_router(2);
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_EQ(network.router(2).loc_rib().size(), 0u);
  EXPECT_EQ(network.router(2).adj_rib_in().size(), 0u);
  // Peers flushed everything learned from the crashed router; 4 reroutes
  // through 3.
  const bgp::RibEntry* rerouted = network.router(4).best(pfx("10.0.0.0/8"));
  ASSERT_NE(rerouted, nullptr);
  EXPECT_EQ(rerouted->learned_from, 3u);
  NetworkInvariantChecker checker;
  checker.require_clean(network);

  network.restart_router(2);
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_NE(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  checker.require_clean(network);
}

}  // namespace
}  // namespace moas::chaos
