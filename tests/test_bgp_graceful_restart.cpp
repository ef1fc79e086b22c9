// RFC 4724 graceful restart: the End-of-RIB wire format,
// stale-route retention across a peer's crash/restart cycle, End-of-RIB
// sweeping, the restart-timer fallback, and the end-to-end claim — a
// restarting router stops masquerading as withdraw/re-announce churn.
#include <gtest/gtest.h>

#include <algorithm>

#include "moas/bgp/network.h"
#include "moas/bgp/wire.h"
#include "moas/chaos/invariants.h"

namespace moas::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

void expect_invariants(const Network& network) {
  chaos::NetworkInvariantChecker checker;
  for (const auto& violation : checker.check(network)) {
    ADD_FAILURE() << violation.to_string();
  }
}

Network::Config gr_config(double restart_time = 60.0) {
  Network::Config config;
  config.graceful_restart = true;
  config.gr_restart_time = restart_time;
  return config;
}

// --- wire format -----------------------------------------------------------

TEST(GracefulRestartWire, EndOfRibIsTheEmptyUpdate) {
  const std::vector<std::uint8_t> bytes = wire::encode_sim_update(Update::end_of_rib());
  EXPECT_EQ(bytes.size(), 23u);  // header + two zero length fields (RFC 4724 §2)
  const wire::UpdateMessage decoded = wire::decode_update(bytes);
  EXPECT_TRUE(decoded.withdrawn.empty());
  EXPECT_TRUE(decoded.nlri.empty());
  EXPECT_TRUE(wire::is_end_of_rib(decoded));

  const std::vector<Update> updates = wire::to_sim_updates(decoded);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates.front().kind, Update::Kind::EndOfRib);
}

TEST(GracefulRestartWire, EndOfRibSimUpdateRoundTrips) {
  const Update eor = Update::end_of_rib();
  const auto bytes = wire::encode_sim_update(eor);
  EXPECT_TRUE(wire::is_end_of_rib(wire::decode_update(bytes)));
  EXPECT_EQ(eor.to_string(), "END-OF-RIB");
}

// --- Adj-RIB-In stale tracking --------------------------------------------

RibEntry entry_for(const net::Prefix& prefix, Asn origin) {
  Route route;
  route.prefix = prefix;
  route.attrs.path = AsPath({origin});
  return RibEntry{route, origin};
}

TEST(GracefulRestartRib, MarkSweepAndRefresh) {
  AdjRibIn rib;
  const auto p1 = pfx("10.0.0.0/8");
  const auto p2 = pfx("20.0.0.0/8");
  rib.set(5, entry_for(p1, 5).route);
  rib.set(5, entry_for(p2, 5).route);
  rib.set(6, entry_for(p1, 6).route);

  EXPECT_EQ(rib.mark_peer_stale(5), 2u);
  EXPECT_TRUE(rib.is_stale(p1, 5));
  EXPECT_TRUE(rib.is_stale(p2, 5));
  EXPECT_FALSE(rib.is_stale(p1, 6));
  EXPECT_EQ(rib.stale_count(), 2u);

  // A replayed announcement — even byte-identical — refreshes the entry.
  rib.set(5, entry_for(p1, 5).route);
  EXPECT_FALSE(rib.is_stale(p1, 5));
  EXPECT_EQ(rib.stale_count(), 1u);

  // The sweep flushes what was not refreshed, and only that.
  const auto swept = rib.sweep_stale(5);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept.front(), p2);
  EXPECT_EQ(rib.from_peer(p2, 5), nullptr);
  EXPECT_NE(rib.from_peer(p1, 5), nullptr);
  EXPECT_NE(rib.from_peer(p1, 6), nullptr);
  EXPECT_EQ(rib.stale_count(), 0u);
}

TEST(GracefulRestartRib, EraseClearsStaleMarks) {
  AdjRibIn rib;
  const auto p1 = pfx("10.0.0.0/8");
  rib.set(5, entry_for(p1, 5).route);
  rib.mark_peer_stale(5);
  EXPECT_TRUE(rib.erase(5, p1));  // explicit withdraw during the window
  EXPECT_EQ(rib.stale_count(), 0u);
  EXPECT_TRUE(rib.sweep_stale(5).empty());

  rib.set(5, entry_for(p1, 5).route);
  rib.mark_peer_stale(5);
  rib.erase_peer(5);  // cold session loss supersedes the window
  EXPECT_EQ(rib.stale_count(), 0u);

  rib.set(5, entry_for(p1, 5).route);
  rib.mark_peer_stale(5);
  EXPECT_EQ(rib.erase_by_origin(p1, {5}), 1u);  // detector purge
  EXPECT_EQ(rib.stale_count(), 0u);

  EXPECT_EQ(rib.mark_peer_stale(99), 0u) << "peer with no routes marks nothing";
}

TEST(GracefulRestartRib, StaleEntriesEnumerates) {
  AdjRibIn rib;
  const auto p1 = pfx("10.0.0.0/8");
  rib.set(5, entry_for(p1, 5).route);
  rib.set(6, entry_for(p1, 6).route);
  rib.mark_peer_stale(5);
  rib.mark_peer_stale(6);
  const auto entries = rib.stale_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<net::Prefix, Asn>{p1, 5}));
  EXPECT_EQ(entries[1], (std::pair<net::Prefix, Asn>{p1, 6}));
}

// --- network behavior ------------------------------------------------------

TEST(GracefulRestart, RoutesSurviveCrashAndRestart) {
  // Chain 1 - 2 - 3: with GR, 2 keeps using 1's route while 1 is down, so 3
  // never hears a withdrawal at all.
  Network network(gr_config());
  for (Asn asn : {1u, 2u, 3u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 3);
  const auto prefix = pfx("10.0.0.0/8");
  network.router(1).originate(prefix);
  network.run_to_quiescence();
  ASSERT_NE(network.router(3).best(prefix), nullptr);

  network.crash_router(1);
  // No quiescence yet: mid-window, the route is retained, stale, in use.
  EXPECT_TRUE(network.router(2).adj_rib_in().is_stale(prefix, 1));
  EXPECT_NE(network.router(2).best(prefix), nullptr);
  EXPECT_NE(network.router(3).best(prefix), nullptr);
  EXPECT_EQ(network.router(2).stats().stale_retained, 1u);

  network.restart_router(1);
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_FALSE(network.router(2).adj_rib_in().is_stale(prefix, 1))
      << "the replayed announcement refreshes the stale entry";
  EXPECT_EQ(network.router(3).best_origin(prefix), std::optional<Asn>(1u));
  EXPECT_GE(network.router(1).stats().eor_sent, 1u);
  EXPECT_GE(network.router(2).stats().eor_received, 1u);
  EXPECT_EQ(network.router(2).stats().stale_swept, 0u)
      << "everything was refreshed; End-of-RIB had nothing to sweep";
  EXPECT_EQ(network.router(2).stats().withdrawals_sent, 0u)
      << "3 must never hear the crash as a withdrawal";
  expect_invariants(network);
}

TEST(GracefulRestart, RestartTimerFlushesAbandonedRoutes) {
  Network network(gr_config(30.0));
  for (Asn asn : {1u, 2u, 3u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 3);
  const auto prefix = pfx("10.0.0.0/8");
  network.router(1).originate(prefix);
  network.run_to_quiescence();

  network.crash_router(1);  // never restarts: the timer must clean up
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_EQ(network.router(2).best(prefix), nullptr);
  EXPECT_EQ(network.router(3).best(prefix), nullptr);
  EXPECT_EQ(network.router(2).stats().stale_swept, 1u);
  EXPECT_EQ(network.router(2).adj_rib_in().stale_count(), 0u);
  expect_invariants(network);
}

TEST(GracefulRestart, EndOfRibSweepsRoutesTheRestartDropped) {
  // 1 originates two prefixes, loses one across its downtime (operator
  // deconfigured it). The replay announces only the survivor; End-of-RIB
  // must implicitly withdraw the other — before the restart timer.
  Network network(gr_config(300.0));  // timer far away: the sweep must do it
  for (Asn asn : {1u, 2u}) network.add_router(asn);
  network.connect(1, 2);
  const auto kept = pfx("10.0.0.0/8");
  const auto dropped = pfx("20.0.0.0/8");
  network.router(1).originate(kept);
  network.router(1).originate(dropped);
  network.run_to_quiescence();
  ASSERT_NE(network.router(2).best(dropped), nullptr);

  network.crash_router(1);
  network.router(1).withdraw_origination(dropped);  // config change while down
  const double restarted_at = network.clock().now();
  network.restart_router(1);
  // Run well inside the 300 s window: quiescence would also drain the
  // (no-op) restart timer, so timing has to be checked before it fires.
  network.clock().run_until(restarted_at + 50.0);
  EXPECT_NE(network.router(2).best(kept), nullptr);
  EXPECT_EQ(network.router(2).best(dropped), nullptr)
      << "End-of-RIB must sweep the no-longer-announced prefix";
  EXPECT_EQ(network.router(2).stats().stale_swept, 1u)
      << "the sweep happened via End-of-RIB, not the restart timer";
  EXPECT_EQ(network.router(2).adj_rib_in().stale_count(), 0u);
  ASSERT_TRUE(network.run_to_quiescence());
  expect_invariants(network);
}

TEST(GracefulRestart, ColdRestartStillFlushesWhenDisabled) {
  // Control: without the knob, peer_restarting degrades to the cold flush.
  Network network;  // graceful_restart defaults off
  for (Asn asn : {1u, 2u, 3u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 3);
  const auto prefix = pfx("10.0.0.0/8");
  network.router(1).originate(prefix);
  network.run_to_quiescence();

  network.crash_router(1);
  EXPECT_EQ(network.router(2).best(prefix), nullptr) << "cold crash flushes immediately";
  EXPECT_EQ(network.router(2).stats().stale_retained, 0u);
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_GE(network.router(2).stats().withdrawals_sent, 1u);
  expect_invariants(network);
}

TEST(GracefulRestart, StrictlyLessChurnThanColdRestart) {
  // The tentpole claim, head to head on the diamond: one crash/restart
  // cycle of a transit router costs strictly fewer withdrawals and
  // re-announcements with GR than without.
  const auto run_cycle = [](bool graceful) {
    Network::Config config;
    config.graceful_restart = graceful;
    config.gr_restart_time = 60.0;
    Network network(config);
    for (Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
    network.connect(1, 2);
    network.connect(1, 3);
    network.connect(2, 4);
    network.connect(3, 4);
    network.router(1).originate(pfx("10.0.0.0/8"));
    network.run_to_quiescence();

    std::uint64_t withdrawals = 0, announcements = 0;
    const auto snapshot = [&] {
      withdrawals = announcements = 0;
      for (Asn asn : {1u, 2u, 3u, 4u}) {
        withdrawals += network.router(asn).stats().withdrawals_sent;
        announcements += network.router(asn).stats().announcements_sent;
      }
    };
    snapshot();
    const std::uint64_t w0 = withdrawals, a0 = announcements;
    network.crash_router(2);
    network.clock().run_until(network.clock().now() + 5.0);
    network.restart_router(2);
    EXPECT_TRUE(network.run_to_quiescence());
    expect_invariants(network);
    snapshot();
    return std::pair<std::uint64_t, std::uint64_t>{withdrawals - w0, announcements - a0};
  };

  const auto [cold_withdraws, cold_announces] = run_cycle(false);
  const auto [gr_withdraws, gr_announces] = run_cycle(true);
  EXPECT_LT(gr_withdraws, cold_withdraws);
  EXPECT_LT(gr_announces, cold_announces);
  EXPECT_EQ(gr_withdraws, 0u) << "nobody ever lost the route: no withdrawal needed";
}

TEST(GracefulRestart, StaleHygieneInvariantCatchesLeftovers) {
  // Negative test for the new invariant family: freeze a router mid
  // restart-window (no quiescence) and the checker must flag the stale
  // leftovers.
  Network network(gr_config());
  for (Asn asn : {1u, 2u}) network.add_router(asn);
  network.connect(1, 2);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();

  network.router(2).peer_restarting(1);  // stale mark set, timer pending
  chaos::NetworkInvariantChecker checker;
  const auto violations = checker.check(network);
  const bool flagged = std::any_of(violations.begin(), violations.end(), [](const auto& v) {
    return v.invariant == "stale-route-past-timer";
  });
  EXPECT_TRUE(flagged) << "mid-window stale entry must be reported";
}

TEST(GracefulRestart, NetworkConfigValidated) {
  Network::Config config;
  config.graceful_restart = true;
  config.gr_restart_time = 0.0;
  EXPECT_THROW(Network{config}, std::invalid_argument);
}

}  // namespace
}  // namespace moas::bgp
