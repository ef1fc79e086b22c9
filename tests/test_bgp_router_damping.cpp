// Flap damping integrated into the router's import path.
#include <gtest/gtest.h>

#include "moas/bgp/network.h"
#include "moas/bgp/router.h"

namespace moas::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

FlapDamper::Config fast_damping() {
  FlapDamper::Config config;
  config.half_life = 60.0;
  return config;
}

TEST(RouterDamping, RequiresClock) {
  Router router(1, PolicyMode::ShortestPath, [](Asn, Asn, const Update&) {}, nullptr);
  EXPECT_THROW(router.enable_flap_damping(FlapDamper::Config{}), std::invalid_argument);
}

TEST(RouterDamping, FlappingRouteGetsSuppressed) {
  Network network;
  network.add_router(1);
  network.add_router(2);
  network.connect(1, 2);
  network.router(2).enable_flap_damping(fast_damping());

  // Three announce/withdraw cycles from AS 1 push the penalty over the
  // threshold at AS 2.
  for (int flap = 0; flap < 3; ++flap) {
    network.router(1).originate(pfx("10.0.0.0/8"));
    network.clock().run_until(network.clock().now() + 1.0);
    network.router(1).withdraw_origination(pfx("10.0.0.0/8"));
    network.clock().run_until(network.clock().now() + 1.0);
  }
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.clock().run_until(network.clock().now() + 1.0);

  // The route is present in the Adj-RIB-In but suppressed from selection.
  EXPECT_NE(network.router(2).adj_rib_in().from_peer(pfx("10.0.0.0/8"), 1), nullptr);
  EXPECT_EQ(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_GT(network.router(2).stats().candidates_damped, 0u);
}

TEST(RouterDamping, SuppressedRouteComesBackAfterDecay) {
  Network network;
  network.add_router(1);
  network.add_router(2);
  network.connect(1, 2);
  network.router(2).enable_flap_damping(fast_damping());

  for (int flap = 0; flap < 3; ++flap) {
    network.router(1).originate(pfx("10.0.0.0/8"));
    network.clock().run_until(network.clock().now() + 1.0);
    network.router(1).withdraw_origination(pfx("10.0.0.0/8"));
    network.clock().run_until(network.clock().now() + 1.0);
  }
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.clock().run_until(network.clock().now() + 1.0);
  ASSERT_EQ(network.router(2).best(pfx("10.0.0.0/8")), nullptr);

  // Drain everything, including the scheduled reuse re-decide: the route
  // must come back by itself once the penalty has decayed.
  EXPECT_TRUE(network.run_to_quiescence());
  ASSERT_NE(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(network.router(2).best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(1u));
}

TEST(RouterDamping, StableRouteNeverDamped) {
  Network network;
  network.add_router(1);
  network.add_router(2);
  network.connect(1, 2);
  network.router(2).enable_flap_damping(fast_damping());
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  EXPECT_NE(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(network.router(2).stats().candidates_damped, 0u);
}

TEST(RouterDamping, AlternatePathSurvivesDamping) {
  // Diamond: the flapping path through 2 gets suppressed at 4; the stable
  // path through 3 keeps the destination reachable.
  Network network;
  for (Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(1, 3);
  network.connect(2, 4);
  network.connect(3, 4);
  network.router(4).enable_flap_damping(fast_damping());

  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  // Flap the 2-4 link to penalize only the path via 2.
  for (int flap = 0; flap < 4; ++flap) {
    network.set_link_up(2, 4, false);
    network.run_to_quiescence();
    network.set_link_up(2, 4, true);
    network.run_to_quiescence();
  }
  const RibEntry* best = network.router(4).best(pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->route.origin_as(), std::optional<Asn>(1u));
}

}  // namespace
}  // namespace moas::bgp
