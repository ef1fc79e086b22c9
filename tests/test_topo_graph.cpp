#include "moas/topo/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "moas/topo/gen_internet.h"
#include "moas/topo/route_views.h"
#include "moas/topo/sampler.h"
#include "moas/util/rng.h"

namespace moas::topo {
namespace {

AsGraph triangle() {
  AsGraph g;
  g.add_node(1, AsKind::Transit);
  g.add_node(2, AsKind::Transit);
  g.add_node(3, AsKind::Stub);
  g.add_edge(1, 2, bgp::Relationship::Peer);
  g.add_edge(2, 3, bgp::Relationship::Customer);
  g.add_edge(1, 3, bgp::Relationship::Customer);
  return g;
}

TEST(AsGraph, NodesAndKinds) {
  const AsGraph g = triangle();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_TRUE(g.is_transit(1));
  EXPECT_TRUE(g.is_stub(3));
  EXPECT_EQ(g.stubs(), std::vector<bgp::Asn>{3});
  EXPECT_EQ(g.transits(), (std::vector<bgp::Asn>{1, 2}));
}

TEST(AsGraph, ReAddingNodeUpdatesKind) {
  AsGraph g = triangle();
  g.add_node(3, AsKind::Transit);
  EXPECT_TRUE(g.is_transit(3));
  EXPECT_EQ(g.node_count(), 3u);
}

TEST(AsGraph, EdgesAndDegrees) {
  const AsGraph g = triangle();
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(1, 99));
}

TEST(AsGraph, RelationshipsAreMirrored) {
  const AsGraph g = triangle();
  // 3 is 2's customer, so 2 is 3's provider.
  EXPECT_EQ(g.relationship(2, 3), bgp::Relationship::Customer);
  EXPECT_EQ(g.relationship(3, 2), bgp::Relationship::Provider);
  EXPECT_EQ(g.relationship(1, 2), bgp::Relationship::Peer);
  EXPECT_FALSE(g.relationship(1, 99).has_value());
}

TEST(AsGraph, RejectsSelfLoopAndUnknownEndpoints) {
  AsGraph g = triangle();
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 99), std::invalid_argument);
  EXPECT_THROW(g.degree(99), std::invalid_argument);
  EXPECT_THROW(g.kind(99), std::invalid_argument);
}

TEST(AsGraph, RemoveNodeDropsIncidentEdges) {
  AsGraph g = triangle();
  EXPECT_TRUE(g.remove_node(2));
  EXPECT_FALSE(g.remove_node(2));
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(1, 3));
}

TEST(AsGraph, Connectivity) {
  AsGraph g = triangle();
  EXPECT_TRUE(g.is_connected());
  g.add_node(99, AsKind::Stub);
  EXPECT_FALSE(g.is_connected());
}

TEST(AsGraph, EmptyGraphIsConnected) {
  const AsGraph g;
  EXPECT_TRUE(g.is_connected());
}

TEST(AsGraph, ReachableFromWithBlocked) {
  // Path 1-2-3: blocking 2 cuts 3 off.
  AsGraph g;
  for (bgp::Asn asn : {1u, 2u, 3u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto all = g.reachable_from(1);
  EXPECT_EQ(all.size(), 3u);
  const auto cut = g.reachable_from(1, {2});
  EXPECT_EQ(cut, bgp::AsnSet{1});
  EXPECT_THROW(g.reachable_from(1, {1}), std::invalid_argument);
}

/// Textbook BFS over neighbors(), independent of AsGraph's own walk.
std::set<bgp::Asn> plain_bfs(const AsGraph& g, bgp::Asn start,
                             const std::set<bgp::Asn>& blocked) {
  std::set<bgp::Asn> seen{start};
  std::vector<bgp::Asn> queue{start};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const auto& [nbr, _] : g.neighbors(queue[head])) {
      if (!blocked.contains(nbr) && seen.insert(nbr).second) queue.push_back(nbr);
    }
  }
  return seen;
}

/// The 20,200-AS Internet of the scale workloads.
AsGraph scale_internet(util::Rng& rng) {
  InternetConfig config;
  config.tier1 = 12;
  config.tier2 = 288;
  config.tier3 = 700;
  config.stubs = 19'200;
  config.first_asn = 60'000;
  return generate_internet(config, rng);
}

TEST(AsGraph, ReachableFromMatchesPlainBfsOnTheGeneratedInternet) {
  // The visited set grows to graph size, so this also pins the walk's
  // result at that size.
  util::Rng rng(0xf00d);
  const AsGraph g = scale_internet(rng);
  ASSERT_EQ(g.node_count(), 20'200u);
  const bgp::Asn start = g.stubs().front();

  const bgp::AsnSet all = g.reachable_from(start);
  const std::set<bgp::Asn> expected_all = plain_bfs(g, start, {});
  EXPECT_EQ(all.size(), g.node_count());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), expected_all.begin(), expected_all.end()));

  // Cutting every tier-2 AS strands part of the graph.
  const std::vector<bgp::Asn> transits = g.transits();
  const std::vector<bgp::Asn> tier2(transits.begin() + 12, transits.begin() + 300);
  const std::set<bgp::Asn> blocked(tier2.begin(), tier2.end());
  const bgp::AsnSet cut = g.reachable_from(start, bgp::AsnSet(tier2.begin(), tier2.end()));
  const std::set<bgp::Asn> expected_cut = plain_bfs(g, start, blocked);
  EXPECT_LT(cut.size(), all.size() - blocked.size());
  EXPECT_TRUE(std::equal(cut.begin(), cut.end(), expected_cut.begin(), expected_cut.end()));
  EXPECT_TRUE(g.is_connected());
}

/// Every row ascending and duplicate-free, every edge mirrored, and the
/// kept edge count equal to both recounts of the table.
void expect_table_invariants(const AsGraph& g) {
  std::size_t degree_sum = 0;
  for (bgp::Asn a : g.nodes()) {
    const auto row = g.neighbors(a);
    degree_sum += row.size();
    EXPECT_EQ(std::adjacent_find(row.begin(), row.end(),
                                 [](const auto& x, const auto& y) { return x.first >= y.first; }),
              row.end())
        << "row of " << a << " not strictly ascending";
    for (const auto& [b, rel] : row) {
      EXPECT_EQ(g.relationship(b, a), bgp::reverse(rel)) << a << " - " << b;
    }
  }
  EXPECT_EQ(degree_sum % 2, 0u);
  EXPECT_EQ(g.edge_count(), degree_sum / 2);
  EXPECT_EQ(g.edge_count(), g.edges().size());
}

/// Re-annotate an edge, remove the best-connected transit AS, and take the
/// subgraph induced by every other node, checking the table after each.
void expect_invariants_survive_edits(AsGraph g) {
  expect_table_invariants(g);

  const std::vector<AsGraph::Edge> edges = g.edges();
  const auto transit_edge = std::find_if(edges.begin(), edges.end(), [](const auto& e) {
    return e.rel_of_b != bgp::Relationship::Peer;
  });
  ASSERT_NE(transit_edge, edges.end());
  const std::size_t before = g.edge_count();
  g.add_edge(transit_edge->b, transit_edge->a, transit_edge->rel_of_b);  // swap the roles
  EXPECT_EQ(g.edge_count(), before) << "a re-annotated edge counted twice";
  EXPECT_EQ(g.relationship(transit_edge->a, transit_edge->b), bgp::reverse(transit_edge->rel_of_b));
  expect_table_invariants(g);

  const std::vector<bgp::Asn> transits = g.transits();
  const bgp::Asn hub = *std::max_element(transits.begin(), transits.end(),
                                         [&](bgp::Asn x, bgp::Asn y) {
                                           return g.degree(x) < g.degree(y);
                                         });
  const std::size_t hub_degree = g.degree(hub);
  ASSERT_TRUE(g.remove_node(hub));
  EXPECT_EQ(g.edge_count(), before - hub_degree);
  expect_table_invariants(g);

  const std::vector<bgp::Asn> nodes = g.nodes();
  bgp::AsnSet keep;
  for (std::size_t i = 0; i < nodes.size(); i += 2) keep.insert(nodes[i]);
  const AsGraph sub = g.induced(keep);
  EXPECT_EQ(sub.node_count(), keep.size());
  expect_table_invariants(sub);
}

TEST(AsGraph, TableInvariantsHold) {
  util::Rng rng(0xf00d);
  const AsGraph internet = scale_internet(rng);
  ASSERT_EQ(internet.node_count(), 20'200u);
  {
    SCOPED_TRACE("generated Internet");
    expect_invariants_survive_edits(internet);
  }
  {
    SCOPED_TRACE("sample_to_size");
    const AsGraph sampled = sample_to_size(internet, 460, rng);
    ASSERT_GE(sampled.node_count(), 3u);
    expect_invariants_survive_edits(sampled);
  }
}

TEST(AsGraph, LargestComponent) {
  AsGraph g = triangle();
  g.add_node(50, AsKind::Stub);
  g.add_node(51, AsKind::Stub);
  g.add_edge(50, 51);
  const AsGraph big = g.largest_component();
  EXPECT_EQ(big.node_count(), 3u);
  EXPECT_TRUE(big.has_node(1));
  EXPECT_FALSE(big.has_node(50));
}

TEST(AsGraph, InducedSubgraphKeepsAnnotations) {
  const AsGraph g = triangle();
  const AsGraph sub = g.induced({1, 3});
  EXPECT_EQ(sub.node_count(), 2u);
  EXPECT_EQ(sub.edge_count(), 1u);
  EXPECT_EQ(sub.relationship(1, 3), bgp::Relationship::Customer);
  EXPECT_TRUE(sub.is_stub(3));
}

TEST(RouteViews, PrefixForAsnIsInjective) {
  // One /20 per ASN inside 10.0.0.0/8: 4,096 distinct prefixes, after which
  // the assignment wraps.
  std::set<net::Prefix> seen;
  for (bgp::Asn asn = 0; asn < 4096; ++asn) {
    const net::Prefix prefix = prefix_for_asn(asn);
    EXPECT_EQ(prefix.length(), 20u);
    EXPECT_TRUE(net::Prefix::parse("10.0.0.0/8")->contains(prefix));
    EXPECT_TRUE(seen.insert(prefix).second) << asn;
  }
  EXPECT_EQ(prefix_for_asn(4006), prefix_for_asn(4006 + 4096));
}

}  // namespace
}  // namespace moas::topo
