#include "moas/topo/rank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "moas/topo/gen_internet.h"

namespace moas::topo {
namespace {

/// Each AS's rank, read back from the level that lists it. Fails the test
/// if a level is out of ASN order or an AS sits in two levels.
std::map<Asn, std::size_t> rank_by_asn(const RankAssignment& ranks) {
  std::map<Asn, std::size_t> out;
  for (std::size_t r = 0; r < ranks.levels.size(); ++r) {
    EXPECT_TRUE(std::is_sorted(ranks.levels[r].begin(), ranks.levels[r].end())) << "level " << r;
    for (Asn asn : ranks.levels[r]) {
      EXPECT_TRUE(out.emplace(asn, r).second) << "AS " << asn << " in two levels";
    }
  }
  return out;
}

TEST(RankByCustomerCone, RankIsLongestCustomerChain) {
  AsGraph g;
  for (Asn asn : {1u, 2u, 3u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2, bgp::Relationship::Customer);  // 2 is 1's customer
  g.add_edge(2, 3, bgp::Relationship::Customer);  // 3 is 2's customer
  const RankAssignment ranks = rank_by_customer_cone(g);
  const auto rank = rank_by_asn(ranks);
  EXPECT_EQ(rank.at(3), 0u);
  EXPECT_EQ(rank.at(2), 1u);
  EXPECT_EQ(rank.at(1), 2u);
  EXPECT_EQ(ranks.max_rank(), 2u);
  ASSERT_EQ(ranks.levels.size(), 3u);
  EXPECT_EQ(ranks.levels[0], std::vector<Asn>{3});
  EXPECT_EQ(ranks.levels[1], std::vector<Asn>{2});
  EXPECT_EQ(ranks.levels[2], std::vector<Asn>{1});
}

TEST(RankByCustomerCone, LongestPathWinsOverShortcut) {
  // 3 is a customer of both 2 and 1; 2 is a customer of 1. The direct 1-3
  // edge must not pull 1 down to rank 1: its longest customer chain is
  // 1 <- 2 <- 3.
  AsGraph g;
  for (Asn asn : {1u, 2u, 3u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2, bgp::Relationship::Customer);
  g.add_edge(2, 3, bgp::Relationship::Customer);
  g.add_edge(1, 3, bgp::Relationship::Customer);
  const auto rank = rank_by_asn(rank_by_customer_cone(g));
  EXPECT_EQ(rank.at(3), 0u);
  EXPECT_EQ(rank.at(2), 1u);
  EXPECT_EQ(rank.at(1), 2u);
}

TEST(RankByCustomerCone, PeerEdgesDoNotParticipate) {
  AsGraph g;
  for (Asn asn : {1u, 2u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2, bgp::Relationship::Peer);
  const RankAssignment ranks = rank_by_customer_cone(g);
  ASSERT_EQ(ranks.levels.size(), 1u);
  EXPECT_EQ(ranks.levels[0], (std::vector<Asn>{1, 2}));
}

TEST(RankByCustomerCone, CustomerProviderCycleIsRejectedNotHung) {
  // 2 is 1's customer, 3 is 2's customer, 1 is 3's customer: no topological
  // order exists. The pass must throw loudly — never spin or underflow.
  AsGraph g;
  for (Asn asn : {1u, 2u, 3u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2, bgp::Relationship::Customer);
  g.add_edge(2, 3, bgp::Relationship::Customer);
  g.add_edge(3, 1, bgp::Relationship::Customer);
  EXPECT_THROW(rank_by_customer_cone(g), std::invalid_argument);
}

TEST(RankByCustomerCone, ReannotatedEdgeIsNotACycle) {
  // AsGraph keeps one relationship per edge (symmetric views): re-adding
  // 1-2 with the roles swapped *re-annotates* the edge rather than creating
  // a two-node cycle — the rank pass must accept the result.
  AsGraph g;
  g.add_node(1, AsKind::Transit);
  g.add_node(2, AsKind::Transit);
  g.add_edge(1, 2, bgp::Relationship::Customer);
  g.add_edge(2, 1, bgp::Relationship::Customer);  // now 1 is 2's customer
  const auto rank = rank_by_asn(rank_by_customer_cone(g));
  EXPECT_EQ(rank.at(1), 0u);
  EXPECT_EQ(rank.at(2), 1u);
}

TEST(RankByCustomerCone, GeneratedInternetInvariants) {
  util::Rng rng(17);
  topo::InternetConfig config;
  config.tier1 = 6;
  config.tier2 = 24;
  config.tier3 = 40;
  config.stubs = 600;
  const AsGraph g = generate_internet(config, rng);
  const RankAssignment ranks = rank_by_customer_cone(g);

  // Every node is ranked, and the levels partition the node set.
  for (std::size_t r = 0; r < ranks.levels.size(); ++r) {
    ASSERT_FALSE(ranks.levels[r].empty()) << "empty level " << r;
  }
  const auto rank = rank_by_asn(ranks);
  ASSERT_EQ(rank.size(), g.node_count());
  for (Asn asn : g.nodes()) EXPECT_TRUE(rank.contains(asn)) << "AS " << asn;

  // Stubs have no customers: all rank 0. The tiered hierarchy is at least
  // three deep (stub -> transit -> core).
  for (Asn stub : g.stubs()) EXPECT_EQ(rank.at(stub), 0u) << "stub " << stub;
  EXPECT_GE(ranks.max_rank(), 2u);

  // The defining inequality: a provider outranks each of its customers
  // (rank = longest customer chain, so strictly greater).
  for (const AsGraph::Edge& edge : g.edges()) {
    const Asn provider = edge.rel_of_b == bgp::Relationship::Customer ? edge.a : edge.b;
    const Asn customer = provider == edge.a ? edge.b : edge.a;
    if (edge.rel_of_b == bgp::Relationship::Peer) continue;
    EXPECT_GT(rank.at(provider), rank.at(customer))
        << provider << " -> " << customer;
  }
}

TEST(RankByCustomerCone, EmptyGraph) {
  const RankAssignment ranks = rank_by_customer_cone(AsGraph{});
  EXPECT_TRUE(ranks.levels.empty());
  EXPECT_EQ(ranks.max_rank(), 0u);
}

}  // namespace
}  // namespace moas::topo
