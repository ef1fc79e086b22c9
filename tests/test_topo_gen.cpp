#include "moas/topo/gen_internet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "moas/topo/metrics.h"

namespace moas::topo {
namespace {

InternetConfig small_config() {
  InternetConfig config;
  config.tier1 = 5;
  config.tier2 = 20;
  config.tier3 = 40;
  config.stubs = 400;
  return config;
}

TEST(GenInternet, ProducesRequestedPopulation) {
  util::Rng rng(1);
  const InternetConfig config = small_config();
  const AsGraph g = generate_internet(config, rng);
  EXPECT_EQ(g.node_count(), config.tier1 + config.tier2 + config.tier3 + config.stubs);
  EXPECT_EQ(g.stubs().size(), config.stubs);
  EXPECT_EQ(g.transits().size(), config.tier1 + config.tier2 + config.tier3);
}

TEST(GenInternet, IsConnected) {
  util::Rng rng(2);
  const AsGraph g = generate_internet(small_config(), rng);
  EXPECT_TRUE(g.is_connected());
}

TEST(GenInternet, EveryStubHasAtLeastOneProvider) {
  util::Rng rng(3);
  const AsGraph g = generate_internet(small_config(), rng);
  for (bgp::Asn stub : g.stubs()) {
    EXPECT_GE(g.degree(stub), 1u);
    bool has_provider = false;
    for (const auto& [nbr, rel] : g.neighbors(stub)) {
      if (rel == bgp::Relationship::Provider) has_provider = true;
      // Stubs never transit: none of their edges makes them a provider.
      EXPECT_NE(rel, bgp::Relationship::Customer) << "stub " << stub << " -> " << nbr;
    }
    EXPECT_TRUE(has_provider) << "stub " << stub;
  }
}

TEST(GenInternet, MultihomingMixRoughlyHonored) {
  util::Rng rng(4);
  InternetConfig config = small_config();
  config.stubs = 2000;
  config.stub_two_provider_prob = 0.35;
  config.stub_three_provider_prob = 0.10;
  const AsGraph g = generate_internet(config, rng);
  std::size_t multi = 0;
  for (bgp::Asn stub : g.stubs()) {
    if (g.degree(stub) >= 2) ++multi;
  }
  const double multi_fraction = static_cast<double>(multi) / 2000.0;
  EXPECT_NEAR(multi_fraction, 0.45, 0.05);
}

TEST(GenInternet, DegreeDistributionIsHeavyTailed) {
  util::Rng rng(5);
  const AsGraph g = generate_internet(InternetConfig{}, rng);
  const DegreeStats stats = degree_stats(g);
  // Preferential attachment: the busiest AS dwarfs the mean degree.
  EXPECT_GT(static_cast<double>(stats.max), 10.0 * stats.mean);
  // The MLE power-law exponent for AS graphs is typically ~1.5-2.5.
  EXPECT_GT(stats.power_law_alpha, 1.2);
  EXPECT_LT(stats.power_law_alpha, 3.5);
}

TEST(GenInternet, DeterministicForSeed) {
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  const AsGraph a = generate_internet(small_config(), rng_a);
  const AsGraph b = generate_internet(small_config(), rng_b);
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (bgp::Asn asn : a.nodes()) {
    ASSERT_TRUE(b.has_node(asn));
    EXPECT_EQ(a.degree(asn), b.degree(asn));
  }
}

TEST(GenInternet, RejectsDegenerateConfig) {
  util::Rng rng(1);
  InternetConfig config;
  config.tier1 = 1;
  EXPECT_THROW(generate_internet(config, rng), std::invalid_argument);
  config = InternetConfig{};
  config.stub_two_provider_prob = 0.9;
  config.stub_three_provider_prob = 0.2;
  EXPECT_THROW(generate_internet(config, rng), std::invalid_argument);
}

/// Pool of three providers with degrees 0 / 1 / 2 (weights 1 / 2 / 3,
/// cumulative 1 / 3 / 6 over a total of 6).
AsGraph weighted_pool_graph() {
  AsGraph g;
  for (bgp::Asn asn : {1u, 2u, 3u, 4u, 5u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  g.add_edge(3, 5);
  return g;
}

TEST(PickWeightedProvider, RollSelectsByCumulativeWeight) {
  const AsGraph g = weighted_pool_graph();
  const std::vector<bgp::Asn> pool{1, 2, 3};
  // Interval ends at 1/6, 3/6, 6/6 of the total weight.
  EXPECT_EQ(detail::pick_weighted_provider(g, pool, 0.0, {}), 1u);
  EXPECT_EQ(detail::pick_weighted_provider(g, pool, 1.0 / 6.0, {}), 1u);
  EXPECT_EQ(detail::pick_weighted_provider(g, pool, 0.2, {}), 2u);
  EXPECT_EQ(detail::pick_weighted_provider(g, pool, 0.5, {}), 2u);
  EXPECT_EQ(detail::pick_weighted_provider(g, pool, 0.6, {}), 3u);
  EXPECT_EQ(detail::pick_weighted_provider(g, pool, 0.999, {}), 3u);
}

TEST(PickWeightedProvider, BoundaryRollResolvesToLastVisitedCandidate) {
  // The draw returns the first eligible entry whose integer prefix sum is
  // >= roll01 · total. roll01 · total never exceeds total, so roll01 == 1
  // lands on the last eligible entry in pool order, whatever that order
  // is, and no fallback past the end of the pool exists. Excluded entries
  // weigh nothing: roll01 == 0 lands on the first *eligible* entry.
  const AsGraph g = weighted_pool_graph();
  EXPECT_EQ(detail::pick_weighted_provider(g, {1, 2, 3}, 1.0, {}), 3u);
  EXPECT_EQ(detail::pick_weighted_provider(g, {3, 2, 1}, 1.0, {}), 1u);
  EXPECT_EQ(detail::pick_weighted_provider(g, {1, 2, 3}, 1.0, {3}), 2u);
  EXPECT_EQ(detail::pick_weighted_provider(g, {1, 2, 3}, 0.0, {1}), 2u);
}

TEST(PickWeightedProvider, ExhaustedPoolIsLoud) {
  const AsGraph g = weighted_pool_graph();
  EXPECT_ANY_THROW(detail::pick_weighted_provider(g, {1, 2}, 0.5, {1, 2}));
}

/// The linear scan the generator drew providers with before the Fenwick
/// tree, kept as the reference the tree must agree with. Returns kNoAs
/// when every entry is excluded.
bgp::Asn linear_scan_pick(const AsGraph& g, const std::vector<bgp::Asn>& pool, double roll01,
                          const AsnSet& exclude) {
  double total = 0.0;
  for (bgp::Asn asn : pool) {
    if (exclude.contains(asn)) continue;
    total += static_cast<double>(g.degree(asn)) + 1.0;
  }
  if (total <= 0.0) return bgp::kNoAs;
  double target = roll01 * total;
  bgp::Asn last_visited = bgp::kNoAs;
  for (bgp::Asn asn : pool) {
    if (exclude.contains(asn)) continue;
    target -= static_cast<double>(g.degree(asn)) + 1.0;
    if (target <= 0.0) return asn;
    last_visited = asn;
  }
  return last_visited;
}

/// Rolls that stress the boundaries: 0, 1, the largest roll below 1, a few
/// random ones, and every exact interval boundary k / total with its two
/// floating-point neighbours.
std::vector<double> boundary_rolls(std::uint64_t total, util::Rng& rng) {
  std::vector<double> rolls{0.0, 1.0, std::nextafter(1.0, 0.0)};
  for (int i = 0; i < 8; ++i) rolls.push_back(rng.uniform01());
  for (std::uint64_t k = 0; k <= total; ++k) {
    const double boundary = static_cast<double>(k) / static_cast<double>(total);
    rolls.push_back(boundary);
    if (k > 0) rolls.push_back(std::nextafter(boundary, 0.0));
    if (k < total) rolls.push_back(std::nextafter(boundary, 1.0));
  }
  return rolls;
}

/// Nodes 1..n with random degrees (edges to hub nodes from 1001 up).
AsGraph random_degree_graph(std::size_t n, std::size_t max_degree, util::Rng& rng) {
  AsGraph g;
  for (bgp::Asn asn = 1; asn <= n; ++asn) g.add_node(asn, AsKind::Transit);
  for (bgp::Asn hub = 1001; hub <= 1000 + max_degree; ++hub) g.add_node(hub, AsKind::Stub);
  for (bgp::Asn asn = 1; asn <= n; ++asn) {
    const auto degree = rng.uniform(0, max_degree);
    for (bgp::Asn hub = 1001; hub <= 1000 + degree; ++hub) g.add_edge(asn, hub);
  }
  return g;
}

/// A random non-empty pool in random order; the first case is the
/// reversed pool {3, 2, 1}.
std::vector<bgp::Asn> random_pool(std::size_t n, std::size_t trial, util::Rng& rng) {
  if (trial == 0 && n >= 3) return {3, 2, 1};
  std::vector<bgp::Asn> pool;
  for (bgp::Asn asn = 1; asn <= n; ++asn) {
    if (pool.empty() || rng.chance(0.7)) pool.push_back(asn);
  }
  rng.shuffle(pool);
  return pool;
}

/// Up to two pool entries, sometimes plus an ASN outside the pool.
AsnSet random_exclusion(const std::vector<bgp::Asn>& pool, util::Rng& rng) {
  AsnSet exclude;
  const std::size_t count = rng.index(3);
  for (std::size_t i = 0; i < count; ++i) exclude.insert(rng.pick(pool));
  if (rng.chance(0.2)) exclude.insert(999);
  return exclude;
}

std::uint64_t eligible_weight(const AsGraph& g, const std::vector<bgp::Asn>& pool,
                              const AsnSet& exclude) {
  std::uint64_t total = 0;
  for (bgp::Asn asn : pool) {
    if (!exclude.contains(asn)) total += g.degree(asn) + 1;
  }
  return total;
}

TEST(PickWeightedProvider, FenwickPickMatchesLinearScan) {
  util::Rng rng(0xfe4);
  for (std::size_t trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.index(24);
    const AsGraph g = random_degree_graph(n, trial % 3 == 0 ? 2 : 30, rng);
    const std::vector<bgp::Asn> pool = random_pool(n, trial, rng);
    const AsnSet exclude = random_exclusion(pool, rng);
    const std::uint64_t total = eligible_weight(g, pool, exclude);
    if (total == 0) {
      EXPECT_ANY_THROW(detail::pick_weighted_provider(g, pool, 0.5, exclude));
      continue;
    }
    for (double roll : boundary_rolls(total, rng)) {
      ASSERT_EQ(detail::pick_weighted_provider(g, pool, roll, exclude),
                linear_scan_pick(g, pool, roll, exclude))
          << "trial " << trial << " roll " << roll;
    }
  }
}

TEST(PickWeightedProvider, FenwickPoolTracksDegreeGrowth) {
  // The generator's use: one pool, edges added between draws, each bumping
  // its pool endpoint. Every draw must match a fresh scan of the graph.
  util::Rng rng(0xb0b);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.index(16);
    AsGraph g = random_degree_graph(n, 6, rng);
    const std::vector<bgp::Asn> members = random_pool(n, trial, rng);
    detail::ProviderPool pool(g, members);
    bgp::Asn next_customer = 2001;
    for (int step = 0; step < 30; ++step) {
      const bgp::Asn provider = rng.pick(members);
      g.add_node(next_customer, AsKind::Stub);
      g.add_edge(provider, next_customer++, bgp::Relationship::Customer);
      pool.bump(provider);
      pool.bump(next_customer - 1);  // not a member: no effect
      const AsnSet exclude = random_exclusion(members, rng);
      const std::uint64_t total = eligible_weight(g, members, exclude);
      EXPECT_EQ(pool.exhausted_by(exclude), total == 0);
      if (total == 0) continue;
      for (double roll : {0.0, rng.uniform01(), std::nextafter(1.0, 0.0), 1.0}) {
        ASSERT_EQ(pool.pick(roll, exclude), linear_scan_pick(g, members, roll, exclude))
            << "trial " << trial << " step " << step << " roll " << roll;
      }
    }
  }
}

TEST(GenInternet, SmallCoreNeverExhaustsStubProviders) {
  // Two tier-1 ASes and no (or few) lower transits: three-provider stubs
  // once asked an exhausted pool for a third provider and threw.
  for (const std::size_t lower : {std::size_t{0}, std::size_t{10}}) {
    InternetConfig config;
    config.tier1 = 2;
    config.tier2 = lower;
    config.tier3 = lower;
    config.stubs = 2000;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      util::Rng rng(seed);
      AsGraph g;
      ASSERT_NO_THROW(g = generate_internet(config, rng)) << "lower " << lower << " seed " << seed;
      ASSERT_EQ(g.stubs().size(), config.stubs);
      for (bgp::Asn stub : g.stubs()) {
        ASSERT_GE(g.degree(stub), 1u);
        ASSERT_LE(g.degree(stub), lower == 0 ? 2u : 3u);
      }
    }
  }
}

TEST(GenInternet, DrawSequenceGolden) {
  // Pins the generator's rng draw sequence across refactors of the provider
  // draw: the single-pass boundary fix is behavior-preserving, so the
  // seed-7 small topology keeps these exact structural counts. If this
  // breaks, every committed golden derived from generated topologies moves.
  util::Rng rng(7);
  const AsGraph g = generate_internet(small_config(), rng);
  EXPECT_EQ(g.node_count(), 465u);
  EXPECT_EQ(g.edge_count(), 973u);
  EXPECT_EQ(g.degree(1), 41u);
  EXPECT_EQ(g.degree(65), 13u);
  EXPECT_EQ(rng.next(), 10985903897301118718ULL);
}

TEST(Metrics, FractionCutOffLinearChain) {
  AsGraph g;
  for (bgp::Asn asn : {1u, 2u, 3u, 4u, 5u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  // Removing 3 cuts {4,5} from source 1: population excludes source+removed
  // (3 nodes remain: 2, 4, 5), of which two are cut.
  EXPECT_DOUBLE_EQ(fraction_cut_off(g, {1}, {3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(fraction_cut_off(g, {1}, {}), 0.0);
}

TEST(Metrics, FractionCutOffMultipleSources) {
  AsGraph g;
  for (bgp::Asn asn : {1u, 2u, 3u, 4u, 5u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  // Sources at both ends: removing 3 isolates nobody from *all* sources.
  EXPECT_DOUBLE_EQ(fraction_cut_off(g, {1, 5}, {3}), 0.0);
}

TEST(Metrics, FractionCutOffRemovedSource) {
  AsGraph g;
  for (bgp::Asn asn : {1u, 2u}) g.add_node(asn, AsKind::Transit);
  g.add_edge(1, 2);
  // The only source is itself removed: everyone left is cut off.
  EXPECT_DOUBLE_EQ(fraction_cut_off(g, {1}, {1}), 1.0);
}

TEST(Metrics, MeanPathLengthOnRing) {
  AsGraph g;
  for (bgp::Asn asn = 1; asn <= 6; ++asn) g.add_node(asn, AsKind::Transit);
  for (bgp::Asn asn = 1; asn <= 6; ++asn) g.add_edge(asn, asn % 6 + 1);
  const double mean = mean_path_length(g, 500, 11);
  // On a 6-ring distances are 1,2,3 (mean 1.8 over distinct pairs).
  EXPECT_NEAR(mean, 1.8, 0.2);
}

}  // namespace
}  // namespace moas::topo
