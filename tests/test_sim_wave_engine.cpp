#include "moas/sim/wave_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "moas/obs/metrics.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/route_views.h"
#include "moas/topo/sampler.h"
#include "moas/util/assert.h"

namespace moas::sim {
namespace {

using topo::AsGraph;
using topo::AsKind;

/// Two peered providers (1, 2), each with one stub customer (3 under 1,
/// 4 under 2) — the smallest topology with all three relationship classes.
AsGraph peered_pair() {
  AsGraph g;
  g.add_node(1, AsKind::Transit);
  g.add_node(2, AsKind::Transit);
  g.add_node(3, AsKind::Stub);
  g.add_node(4, AsKind::Stub);
  g.add_edge(1, 2, bgp::Relationship::Peer);
  g.add_edge(1, 3, bgp::Relationship::Customer);
  g.add_edge(2, 4, bgp::Relationship::Customer);
  return g;
}

TEST(WaveEngine, StubOriginationReachesEveryoneShortestPath) {
  const AsGraph g = peered_pair();
  WaveEngine wave(g, bgp::PolicyMode::ShortestPath);
  const net::Prefix prefix = topo::prefix_for_asn(3);
  wave.router(3).originate(prefix);
  wave.propagate();
  for (bgp::Asn asn : g.nodes()) {
    const auto origin = wave.best_origin(asn, prefix);
    ASSERT_TRUE(origin.has_value()) << "AS " << asn;
    EXPECT_EQ(*origin, 3u) << "AS " << asn;
  }
  EXPECT_GT(wave.deliveries(), 0u);
  EXPECT_GE(wave.cycles(), 1u);
}

TEST(WaveEngine, GaoRexfordCrossesThePeerEdge) {
  // Valley-free: the customer route climbs to 1, crosses the 1-2 peer edge
  // exactly once, and descends to 2's customer — one up/across/down cycle.
  const AsGraph g = peered_pair();
  WaveEngine wave(g, bgp::PolicyMode::GaoRexford);
  const net::Prefix prefix = topo::prefix_for_asn(3);
  wave.router(3).originate(prefix);
  wave.propagate();
  for (bgp::Asn asn : g.nodes()) {
    EXPECT_EQ(wave.best_origin(asn, prefix), std::optional<bgp::Asn>(3)) << "AS " << asn;
  }
  EXPECT_EQ(wave.cycles(), 1u);
}

TEST(WaveEngine, PropagateIsIncremental) {
  const AsGraph g = peered_pair();
  WaveEngine wave(g, bgp::PolicyMode::ShortestPath);
  const net::Prefix first = topo::prefix_for_asn(3);
  const net::Prefix second = topo::prefix_for_asn(4);
  wave.router(3).originate(first);
  wave.propagate();
  EXPECT_FALSE(wave.best_origin(1, second).has_value());
  wave.router(4).originate(second);
  wave.propagate();
  for (bgp::Asn asn : g.nodes()) {
    EXPECT_EQ(wave.best_origin(asn, first), std::optional<bgp::Asn>(3));
    EXPECT_EQ(wave.best_origin(asn, second), std::optional<bgp::Asn>(4));
  }
}

TEST(WaveEngine, RejectsCyclicCustomerProviderGraph) {
  AsGraph g;
  for (bgp::Asn asn : {1u, 2u, 3u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2, bgp::Relationship::Customer);
  g.add_edge(2, 3, bgp::Relationship::Customer);
  g.add_edge(3, 1, bgp::Relationship::Customer);
  EXPECT_THROW(WaveEngine(g, bgp::PolicyMode::ShortestPath), std::invalid_argument);
}

TEST(WaveEngine, DeterministicAcrossInstances) {
  util::Rng rng(23);
  topo::InternetConfig config;
  config.tier1 = 5;
  config.tier2 = 18;
  config.tier3 = 30;
  config.stubs = 450;
  const AsGraph internet = topo::generate_internet(config, rng);
  const AsGraph g = topo::sample_to_size(internet, 90, rng, 0.10);
  const bgp::Asn origin = g.stubs().front();
  const net::Prefix prefix = topo::prefix_for_asn(origin);

  auto run = [&](WaveEngine& wave) {
    wave.router(origin).originate(prefix);
    wave.propagate();
  };
  WaveEngine a(g, {});
  WaveEngine b(g, {});
  run(a);
  run(b);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.deliveries(), b.deliveries());
  EXPECT_EQ(a.collapsed(), b.collapsed());
  for (bgp::Asn asn : g.nodes()) {
    ASSERT_EQ(a.best_origin(asn, prefix), b.best_origin(asn, prefix)) << "AS " << asn;
    EXPECT_EQ(a.best_origin(asn, prefix), std::optional<bgp::Asn>(origin));
  }
}

TEST(WaveEngine, CollectMetricsMapsEngineCounters) {
  const AsGraph g = peered_pair();
  WaveEngine wave(g, bgp::PolicyMode::ShortestPath);
  wave.router(3).originate(topo::prefix_for_asn(3));
  wave.propagate();
  obs::MetricsRegistry metrics;
  wave.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("network.messages_sent"), wave.deliveries());
  EXPECT_EQ(metrics.counter("wave.cycles"), wave.cycles());
  EXPECT_EQ(metrics.counter("wave.updates_collapsed"), wave.collapsed());
  EXPECT_EQ(metrics.counter("sim.events_executed"), 0u);
  EXPECT_GT(metrics.counter("router.announcements_sent"), 0u);
}

TEST(WaveEngine, UnknownRouterIsRejected) {
  const AsGraph g = peered_pair();
  WaveEngine wave(g, bgp::PolicyMode::ShortestPath);
  EXPECT_TRUE(wave.has_router(1));
  EXPECT_FALSE(wave.has_router(99));
  EXPECT_THROW(wave.router(99), std::invalid_argument);
}

TEST(WaveEngine, WiredOutOfAsnOrderDeliversToEachReceiver) {
  // Each router sends over the index of its peering in the engine's
  // outbound table; added in descending ASN order, with every relationship
  // class on the hub, each update must still land at its own receiver.
  AsGraph g;
  for (bgp::Asn asn : {60u, 50u, 40u, 30u, 20u, 10u}) {
    g.add_node(asn, asn == 10 || asn == 30 || asn == 40 ? AsKind::Transit : AsKind::Stub);
  }
  g.add_edge(30, 60, bgp::Relationship::Customer);
  g.add_edge(30, 50, bgp::Relationship::Peer);
  g.add_edge(30, 20, bgp::Relationship::Customer);
  g.add_edge(30, 10, bgp::Relationship::Provider);
  g.add_edge(40, 30, bgp::Relationship::Customer);
  WaveEngine wave(g, bgp::PolicyMode::ShortestPath);
  const auto own_prefix = [](bgp::Asn asn) {
    return net::Prefix(net::Ipv4Addr(10, static_cast<std::uint8_t>(asn), 0, 0), 16);
  };
  const std::vector<bgp::Asn> spokes = {10, 20, 40, 50, 60};
  for (bgp::Asn spoke : spokes) wave.router(spoke).originate(own_prefix(spoke));
  wave.propagate();
  for (bgp::Asn spoke : spokes) {
    const bgp::RibEntry* heard =
        wave.router(30).adj_rib_in().from_peer(own_prefix(spoke), spoke);
    ASSERT_NE(heard, nullptr) << "hub lost AS" << spoke << "'s origination";
    EXPECT_EQ(heard->route.attrs.path.to_string(), std::to_string(spoke));
    for (bgp::Asn other : spokes) {
      if (other == spoke) continue;
      const bgp::RibEntry* via_hub = wave.router(other).adj_rib_in().from_peer(own_prefix(spoke), 30);
      ASSERT_NE(via_hub, nullptr);
      EXPECT_EQ(via_hub->route.attrs.path.to_string(), "30 " + std::to_string(spoke));
    }
  }
}

TEST(WaveEngine, UnwiredPeerFailsLoudly) {
  // 3 and 4 are not adjacent: a peer added behind the engine's back has no
  // outbound slot, and the first update toward it must throw.
  const AsGraph g = peered_pair();
  WaveEngine wave(g, bgp::PolicyMode::ShortestPath);
  wave.router(3).add_peer(4, bgp::Relationship::Peer);
  EXPECT_THROW(wave.router(3).originate(*net::Prefix::parse("10.0.0.0/8")),
               util::InvariantError);
}

TEST(WaveEngine, HubWithThousandsOfCustomersWiresEveryPeer) {
  constexpr bgp::Asn kStubs = 3000;
  AsGraph g;
  g.add_node(1, AsKind::Transit);
  for (bgp::Asn stub = 2; stub <= kStubs + 1; ++stub) {
    g.add_node(stub, AsKind::Stub);
    g.add_edge(1, stub, bgp::Relationship::Customer);
  }
  WaveEngine wave(g, bgp::PolicyMode::GaoRexford);
  const std::vector<bgp::Asn> peers = wave.router(1).peers();
  ASSERT_EQ(peers.size(), kStubs);
  EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
  const net::Prefix prefix = *net::Prefix::parse("10.0.0.0/8");
  wave.router(kStubs + 1).originate(prefix);
  wave.propagate();
  EXPECT_EQ(wave.best_origin(2, prefix), std::optional<bgp::Asn>(kStubs + 1));
}

}  // namespace
}  // namespace moas::sim
