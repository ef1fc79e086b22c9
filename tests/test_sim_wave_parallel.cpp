// Parallel wave sweeps: the dependency-group schedule and the cross-jobs
// identity of run_multi_prefix. Lives in the `parallel` binary so CI's
// ThreadSanitizer job runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "moas/core/multi_prefix.h"
#include "moas/sim/wave_engine.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/rank.h"
#include "moas/topo/sampler.h"
#include "moas/util/thread_pool.h"

namespace moas {
namespace {

using bgp::Relationship;

constexpr Relationship kSweeps[] = {Relationship::Customer, Relationship::Peer,
                                    Relationship::Provider};

/// A random generated Internet, sampled down (sampling keeps peer edges
/// between transit ASes, so the across sweep has real dependencies).
topo::AsGraph random_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  topo::InternetConfig config;
  config.tier1 = 4 + seed % 4;
  config.tier2 = 12 + seed % 9;
  config.tier3 = 20 + seed % 13;
  config.stubs = 200 + 10 * (seed % 7);
  const topo::AsGraph internet = topo::generate_internet(config, rng);
  return topo::sample_to_size(internet, 80 + 10 * (seed % 5), rng, 0.10);
}

/// The serial sweep order: rank levels, ascending except for the down sweep.
std::vector<std::vector<bgp::Asn>> serial_order(const topo::AsGraph& graph,
                                                Relationship from_rel) {
  std::vector<std::vector<bgp::Asn>> levels = topo::rank_by_customer_cone(graph).levels;
  if (from_rel == Relationship::Provider) std::reverse(levels.begin(), levels.end());
  return levels;
}

/// Two ASes are neighbours in the sweep draining `from_rel` if either
/// files the other under `from_rel`: one drains what the other sends.
bool bucket_neighbours(const topo::AsGraph& graph, bgp::Asn a, bgp::Asn b,
                       Relationship from_rel) {
  return graph.relationship(a, b) == from_rel || graph.relationship(b, a) == from_rel;
}

TEST(WaveGroups, PartitionTheNodesIntoNeighbourFreeGroupsInLevelOrder) {
  util::ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const topo::AsGraph graph = random_graph(seed);
    const sim::WaveEngine parallel(graph, bgp::PolicyMode::ShortestPath, &pool);
    const sim::WaveEngine serial(graph, bgp::PolicyMode::ShortestPath);
    for (Relationship from_rel : kSweeps) {
      SCOPED_TRACE("sweep from " + std::string(bgp::to_string(from_rel)));
      const auto levels = serial_order(graph, from_rel);
      // Without a pool the groups are the levels, in the serial order.
      EXPECT_EQ(serial.sweep_groups(from_rel), levels);

      std::map<bgp::Asn, std::size_t> level_pos;  // position in serial order
      for (const auto& level : levels) {
        for (bgp::Asn asn : level) level_pos.emplace(asn, level_pos.size());
      }
      std::map<bgp::Asn, std::size_t> group_of;
      const auto groups = parallel.sweep_groups(from_rel);
      for (std::size_t g = 0; g < groups.size(); ++g) {
        EXPECT_FALSE(groups[g].empty());
        for (bgp::Asn asn : groups[g]) {
          EXPECT_TRUE(group_of.emplace(asn, g).second) << "AS " << asn << " in two groups";
        }
        // Within a group nodes keep their serial order: the order cannot
        // change a result, but it keeps the schedule reproducible.
        EXPECT_TRUE(std::is_sorted(groups[g].begin(), groups[g].end(),
                                   [&](bgp::Asn x, bgp::Asn y) {
                                     return level_pos.at(x) < level_pos.at(y);
                                   }));
      }
      EXPECT_EQ(group_of.size(), graph.node_count()) << "every node in exactly one group";
      for (const auto& edge : graph.edges()) {
        if (!bucket_neighbours(graph, edge.a, edge.b, from_rel)) continue;
        const std::size_t ga = group_of.at(edge.a);
        const std::size_t gb = group_of.at(edge.b);
        EXPECT_NE(ga, gb) << "neighbours " << edge.a << " and " << edge.b << " share a group";
        // The neighbour the serial sweep visits first drains first.
        const bool a_first = level_pos.at(edge.a) < level_pos.at(edge.b);
        EXPECT_EQ(a_first, ga < gb) << edge.a << " / " << edge.b;
      }
      if (from_rel == Relationship::Customer) {
        // Up sweep: a node's depth is its rank, so the groups are the levels.
        EXPECT_EQ(groups, levels);
      }
    }
  }
}

/// A ~1,000-AS generated Internet: big enough that most groups hold many
/// dirty nodes, small enough for the TSan job.
const topo::AsGraph& mid_topology() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(0x1d);
    topo::InternetConfig config;
    config.tier1 = 6;
    config.tier2 = 40;
    config.tier3 = 120;
    config.stubs = 800;
    return topo::generate_internet(config, rng);
  }();
  return graph;
}

struct Converged {
  core::MultiPrefixResult result;
  std::vector<std::pair<bgp::Asn, std::vector<bgp::RibEntry>>> loc_ribs;
};

Converged run(bgp::PolicyMode policy, std::size_t jobs) {
  core::MultiPrefixConfig config;
  config.num_prefixes = 24;
  config.block_size = 8;
  config.origins_per_prefix = 2;
  config.attacked_fraction = 0.5;
  config.policy = policy;
  config.seed = 0x10b5;
  config.jobs = jobs;
  Converged out;
  out.result = core::run_multi_prefix(mid_topology(), config, [&](const bgp::Router& router) {
    auto& [asn, entries] = out.loc_ribs.emplace_back(router.asn(), std::vector<bgp::RibEntry>{});
    for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
      entries.push_back(*router.loc_rib().best(prefix));
    }
  });
  return out;
}

TEST(MultiPrefix, IdenticalForAnyJobs) {
  for (bgp::PolicyMode policy : {bgp::PolicyMode::ShortestPath, bgp::PolicyMode::GaoRexford}) {
    SCOPED_TRACE(bgp::to_string(policy));
    const Converged one = run(policy, 1);
    ASSERT_GT(one.result.alarms, 0u);
    ASSERT_EQ(one.loc_ribs.size(), mid_topology().node_count());
    for (std::size_t jobs : {2u, 4u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      const Converged many = run(policy, jobs);
      // Every field but the wall-clock propagation_seconds.
      EXPECT_EQ(many.result.prefixes, one.result.prefixes);
      EXPECT_EQ(many.result.attacked, one.result.attacked);
      EXPECT_EQ(many.result.blocks, one.result.blocks);
      EXPECT_EQ(many.result.alarms, one.result.alarms);
      EXPECT_EQ(many.result.false_alarms, one.result.false_alarms);
      EXPECT_EQ(many.result.adopted_false, one.result.adopted_false);
      EXPECT_EQ(many.result.adopted_valid, one.result.adopted_valid);
      EXPECT_EQ(many.result.no_route, one.result.no_route);
      EXPECT_EQ(many.result.routes_installed, one.result.routes_installed);
      EXPECT_EQ(many.result.rib_entries, one.result.rib_entries);
      EXPECT_EQ(many.result.rib_bytes, one.result.rib_bytes);
      EXPECT_EQ(many.result.baseline_rib_bytes, one.result.baseline_rib_bytes);
      EXPECT_EQ(many.result.detector_bytes, one.result.detector_bytes);
      EXPECT_TRUE(many.loc_ribs == one.loc_ribs) << "a router's Loc-RIB differs";
    }
  }
}

}  // namespace
}  // namespace moas
