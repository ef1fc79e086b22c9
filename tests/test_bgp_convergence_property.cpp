// Convergence properties on random topologies: after quiescence, every
// node's best route must be a *real* path in the graph — loop-free, edge by
// edge — ending at the true origin, and its length must equal the BFS
// shortest distance (shortest-path mode with no competing origins).
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "moas/bgp/network.h"
#include "moas/topo/graph.h"
#include "moas/util/rng.h"

namespace moas::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

/// Random connected graph: a random spanning tree plus extra random edges.
topo::AsGraph random_graph(std::size_t n, std::size_t extra_edges, util::Rng& rng) {
  topo::AsGraph g;
  for (Asn asn = 1; asn <= n; ++asn) g.add_node(asn, topo::AsKind::Transit);
  for (Asn asn = 2; asn <= n; ++asn) {
    const Asn parent = static_cast<Asn>(1 + rng.index(asn - 1));
    g.add_edge(asn, parent);
  }
  std::size_t added = 0;
  while (added < extra_edges) {
    const Asn a = static_cast<Asn>(1 + rng.index(n));
    const Asn b = static_cast<Asn>(1 + rng.index(n));
    if (a == b || g.has_edge(a, b)) continue;
    g.add_edge(a, b);
    ++added;
  }
  return g;
}

std::map<Asn, unsigned> bfs_distances(const topo::AsGraph& g, Asn origin) {
  std::map<Asn, unsigned> depth{{origin, 0}};
  std::deque<Asn> frontier{origin};
  while (!frontier.empty()) {
    const Asn cur = frontier.front();
    frontier.pop_front();
    for (const auto& [nbr, _] : g.neighbors(cur)) {
      if (depth.contains(nbr)) continue;
      depth[nbr] = depth[cur] + 1;
      frontier.push_back(nbr);
    }
  }
  return depth;
}

class ConvergenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergenceProperty, BestPathsAreRealShortestPaths) {
  util::Rng rng(GetParam());
  const auto n = 20 + rng.index(30);
  const topo::AsGraph graph = random_graph(n, n / 2, rng);

  Network::Config config;
  config.seed = rng.next();
  Network network(config);
  for (Asn asn : graph.nodes()) network.add_router(asn);
  for (const auto& edge : graph.edges()) network.connect(edge.a, edge.b);

  const Asn origin = static_cast<Asn>(1 + rng.index(n));
  const auto prefix = pfx("10.0.0.0/8");
  network.router(origin).originate(prefix);
  ASSERT_TRUE(network.run_to_quiescence());

  const auto distances = bfs_distances(graph, origin);
  for (Asn asn : graph.nodes()) {
    const RibEntry* best = network.router(asn).best(prefix);
    ASSERT_NE(best, nullptr) << "AS" << asn << " has no route";
    if (asn == origin) continue;

    // The advertised path, hop by hop: starts at a neighbor of `asn`,
    // every consecutive pair is a real edge, no AS repeats, ends at origin.
    ASSERT_EQ(best->route.attrs.path.segments().size(), 1u);
    const auto& hops = best->route.attrs.path.segments()[0].asns;
    ASSERT_FALSE(hops.empty());
    ASSERT_TRUE(graph.has_edge(asn, hops.front()))
        << "AS" << asn << " first hop " << hops.front() << " is not a neighbor";
    AsnSet seen{asn};
    for (std::size_t i = 0; i < hops.size(); ++i) {
      ASSERT_TRUE(seen.insert(hops[i])) << "loop through AS" << hops[i];
      if (i + 1 < hops.size()) {
        ASSERT_TRUE(graph.has_edge(hops[i], hops[i + 1]))
            << "phantom edge " << hops[i] << "-" << hops[i + 1];
      }
    }
    ASSERT_EQ(hops.back(), origin);

    // Shortest: selection length equals the BFS distance.
    ASSERT_EQ(best->route.attrs.path.selection_length(), distances.at(asn))
        << "AS" << asn << " selected a non-shortest path";
  }
}

TEST_P(ConvergenceProperty, WithdrawalDrainsCompletely) {
  util::Rng rng(GetParam() + 500);
  const auto n = 15 + rng.index(20);
  const topo::AsGraph graph = random_graph(n, n / 3, rng);

  Network network;
  for (Asn asn : graph.nodes()) network.add_router(asn);
  for (const auto& edge : graph.edges()) network.connect(edge.a, edge.b);

  const Asn origin = static_cast<Asn>(1 + rng.index(n));
  const auto prefix = pfx("10.0.0.0/8");
  network.router(origin).originate(prefix);
  ASSERT_TRUE(network.run_to_quiescence());
  network.router(origin).withdraw_origination(prefix);
  ASSERT_TRUE(network.run_to_quiescence());
  for (Asn asn : graph.nodes()) {
    EXPECT_EQ(network.router(asn).best(prefix), nullptr) << "AS" << asn;
    EXPECT_TRUE(network.router(asn).adj_rib_in().candidates(prefix).empty())
        << "stale adj-rib-in at AS" << asn;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace moas::bgp
