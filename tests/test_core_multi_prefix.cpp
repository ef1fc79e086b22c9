#include "moas/core/multi_prefix.h"

#include <gtest/gtest.h>

#include "moas/bgp/intern.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

/// A ~150-AS sampled topology shared across the small-workload tests.
const topo::AsGraph& small_topology() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(77);
    topo::InternetConfig config;
    config.tier1 = 6;
    config.tier2 = 24;
    config.tier3 = 40;
    config.stubs = 600;
    const topo::AsGraph internet = topo::generate_internet(config, rng);
    return topo::sample_to_size(internet, 150, rng, 0.10);
  }();
  return graph;
}

MultiPrefixConfig small_config() {
  MultiPrefixConfig config;
  config.num_prefixes = 32;
  config.block_size = 8;
  config.origins_per_prefix = 2;  // every prefix carries an explicit MOAS list
  config.attacked_fraction = 0.5;
  config.strategy = AttackerStrategy::OwnList;
  config.deployment = Deployment::Full;
  config.seed = 0x5eed;
  return config;
}

TEST(MultiPrefix, VictimPrefixesAreDistinctSlash24s) {
  EXPECT_EQ(multi_prefix_victim(0).to_string(), "10.0.0.0/24");
  EXPECT_EQ(multi_prefix_victim(1).to_string(), "10.0.1.0/24");
  EXPECT_EQ(multi_prefix_victim(256).to_string(), "10.1.0.0/24");
  EXPECT_EQ(multi_prefix_victim(65535).to_string(), "10.255.255.0/24");
  EXPECT_THROW(multi_prefix_victim(65536), std::invalid_argument);
}

TEST(MultiPrefix, ValidatesConfig) {
  MultiPrefixConfig config = small_config();
  config.num_prefixes = 0;
  EXPECT_THROW(run_multi_prefix(small_topology(), config), std::invalid_argument);
  config = small_config();
  config.attacked_fraction = 1.5;
  EXPECT_THROW(run_multi_prefix(small_topology(), config), std::invalid_argument);
  config = small_config();
  config.num_prefixes = 4096;  // attackers would exceed half the population
  EXPECT_THROW(run_multi_prefix(small_topology(), config), std::invalid_argument);
  config = small_config();
  config.deployment = Deployment::Full;  // unused under Full, still rejected
  config.deployment_fraction = 1.5;
  EXPECT_THROW(run_multi_prefix(small_topology(), config), std::invalid_argument);
}

TEST(MultiPrefix, RefusesAScopedArena) {
  // Its pool workers intern into the process arena, not the caller's.
  const bgp::intern::ScopedArena arena;
  EXPECT_THROW(run_multi_prefix(small_topology(), small_config()), std::invalid_argument);
}

TEST(MultiPrefix, FullDeploymentRaisesAlarmsWithoutFalsePositives) {
  const MultiPrefixResult result = run_multi_prefix(small_topology(), small_config());
  EXPECT_EQ(result.prefixes, 32u);
  EXPECT_EQ(result.attacked, 16u);
  EXPECT_GT(result.alarms, 0u);
  EXPECT_EQ(result.false_alarms, 0u) << "oracle-resolved lists must never false-alarm";
  EXPECT_GT(result.routes_installed, 0u);
  EXPECT_GT(result.rib_entries, 0u);
  EXPECT_GT(result.adopted_valid, 0u);
  // The interned layout must beat the modeled pre-interning layout.
  EXPECT_LT(result.rib_bytes, result.baseline_rib_bytes);
}

TEST(MultiPrefix, SameSeedSameResult) {
  const MultiPrefixResult a = run_multi_prefix(small_topology(), small_config());
  const MultiPrefixResult b = run_multi_prefix(small_topology(), small_config());
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_EQ(a.false_alarms, b.false_alarms);
  EXPECT_EQ(a.adopted_false, b.adopted_false);
  EXPECT_EQ(a.adopted_valid, b.adopted_valid);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.routes_installed, b.routes_installed);
  EXPECT_EQ(a.rib_entries, b.rib_entries);
  EXPECT_EQ(a.rib_bytes, b.rib_bytes);
  EXPECT_EQ(a.baseline_rib_bytes, b.baseline_rib_bytes);
  EXPECT_EQ(a.detector_bytes, b.detector_bytes);
}

TEST(MultiPrefix, ConvergedTalliesAreBlockSizeIndependent) {
  // Block size bounds the in-flight update set (the memory knob); the
  // converged tables — and everything scored from them — must not move.
  MultiPrefixConfig coarse = small_config();
  coarse.block_size = 32;
  MultiPrefixConfig fine = small_config();
  fine.block_size = 4;
  const MultiPrefixResult a = run_multi_prefix(small_topology(), coarse);
  const MultiPrefixResult b = run_multi_prefix(small_topology(), fine);
  EXPECT_EQ(a.blocks, 1u);
  EXPECT_EQ(b.blocks, 8u);
  EXPECT_EQ(a.adopted_false, b.adopted_false);
  EXPECT_EQ(a.adopted_valid, b.adopted_valid);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.routes_installed, b.routes_installed);
  EXPECT_EQ(a.rib_entries, b.rib_entries);
  // rib_bytes is intentionally absent: container_bytes() reports capacity,
  // and vector growth history differs with insertion batching even when the
  // converged contents are identical.
  EXPECT_EQ(a.baseline_rib_bytes, b.baseline_rib_bytes);
}

TEST(MultiPrefix, CycleCapBoundsEachBlockNotTheRun) {
  // 256 one-prefix blocks run far more cycles in total than the 150-AS
  // graph's cap of node_count + 16; only a single fixpoint may not.
  MultiPrefixConfig config = small_config();
  config.num_prefixes = 256;
  config.attacked_fraction = 0.25;  // 64 distinct attackers of 150 ASes
  MultiPrefixConfig fine = config;
  fine.block_size = 1;
  MultiPrefixConfig coarse = config;
  coarse.block_size = 256;
  const MultiPrefixResult a = run_multi_prefix(small_topology(), fine);
  const MultiPrefixResult b = run_multi_prefix(small_topology(), coarse);
  EXPECT_EQ(a.blocks, 256u);
  EXPECT_EQ(b.blocks, 1u);
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_EQ(a.false_alarms, b.false_alarms);
  EXPECT_EQ(a.adopted_false, b.adopted_false);
  EXPECT_EQ(a.adopted_valid, b.adopted_valid);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.routes_installed, b.routes_installed);
  EXPECT_EQ(a.rib_entries, b.rib_entries);
}

TEST(MultiPrefix, PartialDeploymentStillDetects) {
  MultiPrefixConfig config = small_config();
  config.deployment = Deployment::Partial;
  config.deployment_fraction = 0.5;
  const MultiPrefixResult result = run_multi_prefix(small_topology(), config);
  EXPECT_GT(result.alarms, 0u);
  EXPECT_EQ(result.false_alarms, 0u);
}

TEST(MultiPrefix, WaveRunBeyondTwoOctetAsnSpace) {
  // The ISSUE's scale regression: a topology whose ASN space crosses the
  // 65,535 boundary, multi-prefix attack plan included, must run end to end
  // — alarms fire, nothing aborts on a "wide ASN" check. Kept to a handful
  // of prefixes so the 65k-router wave stays inside the test budget.
  util::Rng rng(0xbeef);
  topo::InternetConfig config;
  config.tier1 = 8;
  config.tier2 = 160;
  config.tier3 = 400;
  config.stubs = 65'000;  // total 65,568 ASes: origins land above 65,535
  const topo::AsGraph graph = topo::generate_internet(config, rng);
  ASSERT_GT(graph.nodes().size(), 65'536u);

  MultiPrefixConfig workload;
  workload.num_prefixes = 4;
  workload.block_size = 2;
  workload.origins_per_prefix = 2;  // wide-ASN members ride large communities
  workload.attacked_fraction = 1.0;
  workload.strategy = AttackerStrategy::OwnList;
  workload.deployment = Deployment::Full;
  workload.seed = 0x600d;
  const MultiPrefixResult result = run_multi_prefix(graph, workload);
  EXPECT_EQ(result.attacked, 4u);
  EXPECT_GT(result.alarms, 0u);
  EXPECT_EQ(result.false_alarms, 0u);
  EXPECT_GT(result.adopted_valid, 0u);
  EXPECT_LT(result.rib_bytes, result.baseline_rib_bytes);
}

}  // namespace
}  // namespace moas::core
