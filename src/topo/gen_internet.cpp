#include "moas/topo/gen_internet.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "moas/util/assert.h"

namespace moas::topo {

namespace {

constexpr double kTier1PeerProb = 0.9;   // fraction of core pairs that peer
constexpr double kTier2PeerProb = 0.08;  // same-tier peering probability
constexpr double kTier3PeerProb = 0.02;

/// Probability that a stub buys transit directly from a tier-1 backbone
/// instead of a regional/local ISP. Real edge networks overwhelmingly
/// attach to lower tiers; keeping this small is what makes *sampled*
/// topologies thin out at small sizes (the paper's size-robustness effect
/// depends on it).
constexpr double kStubTier1Bias = 0.08;

void attach_with_providers(AsGraph& g, Asn node, std::size_t n_providers,
                           detail::ProviderPool& pool, util::Rng& rng) {
  AsnSet chosen;
  const std::size_t want = std::min(n_providers, pool.size());
  while (chosen.size() < want) {
    const Asn provider = pool.pick(rng.uniform01(), chosen);
    chosen.insert(provider);
    // provider sees `node` as its customer; `node` is in no pool yet.
    g.add_edge(provider, node, bgp::Relationship::Customer);
    pool.bump(provider);
  }
}

}  // namespace

namespace detail {

ProviderPool::ProviderPool(const AsGraph& g, std::vector<Asn> members)
    : members_(std::move(members)), weight_(members_.size()), tree_(members_.size() + 1) {
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    MOAS_REQUIRE(position_.emplace(members_[pos], pos).second, "pool members must be distinct");
    weight_[pos] = static_cast<std::int64_t>(g.degree(members_[pos])) + 1;
    total_ += weight_[pos];
    // Linear-time build: each node is complete once its own weight is in,
    // because its children precede it; then it feeds its parent.
    const std::size_t i = pos + 1;
    tree_[i] += weight_[pos];
    if (const std::size_t parent = i + (i & -i); parent <= members_.size()) {
      tree_[parent] += tree_[i];
    }
  }
}

void ProviderPool::add(std::size_t pos, std::int64_t delta) {
  for (std::size_t i = pos + 1; i <= members_.size(); i += i & -i) tree_[i] += delta;
}

void ProviderPool::bump(Asn asn) {
  const auto it = position_.find(asn);
  if (it == position_.end()) return;
  ++weight_[it->second];
  ++total_;
  add(it->second, 1);
}

bool ProviderPool::exhausted_by(const AsnSet& exclude) const {
  std::size_t held = 0;
  for (Asn asn : exclude) held += position_.contains(asn) ? 1 : 0;
  return held == members_.size();
}

Asn ProviderPool::pick(double roll01, const AsnSet& exclude) {
  MOAS_REQUIRE(roll01 >= 0.0 && roll01 <= 1.0, "roll01 must lie in [0, 1]");
  std::vector<std::size_t> excluded;
  std::int64_t total = total_;
  for (Asn asn : exclude) {
    if (const auto it = position_.find(asn); it != position_.end()) {
      excluded.push_back(it->second);
      total -= weight_[it->second];
    }
  }
  MOAS_ENSURE(total > 0, "provider pool exhausted");
  for (std::size_t pos : excluded) add(pos, -weight_[pos]);
  // Eligible weights are integers >= 1, so searching for at least 1 makes
  // roll01 == 0 skip leading excluded (zero-weight) members.
  const double target = std::max(roll01 * static_cast<double>(total), 1.0);
  // Lower-bound descent: `pos` members have a prefix sum below target.
  std::size_t pos = 0;
  std::int64_t sum = 0;
  for (std::size_t step = std::bit_floor(members_.size()); step > 0; step >>= 1) {
    const std::size_t next = pos + step;
    if (next <= members_.size() && static_cast<double>(sum + tree_[next]) < target) {
      pos = next;
      sum += tree_[next];
    }
  }
  for (std::size_t excluded_pos : excluded) add(excluded_pos, weight_[excluded_pos]);
  return members_[pos];
}

Asn pick_weighted_provider(const AsGraph& g, const std::vector<Asn>& pool, double roll01,
                           const AsnSet& exclude) {
  return ProviderPool(g, pool).pick(roll01, exclude);
}

}  // namespace detail

AsGraph generate_internet(const InternetConfig& config, util::Rng& rng) {
  MOAS_REQUIRE(config.tier1 >= 2, "need at least two tier-1 ASes");
  MOAS_REQUIRE(config.stub_two_provider_prob + config.stub_three_provider_prob <= 1.0,
               "multi-homing probabilities must sum to <= 1");

  AsGraph g;
  Asn next = config.first_asn;

  std::vector<Asn> tier1;
  for (std::size_t i = 0; i < config.tier1; ++i) {
    g.add_node(next, AsKind::Transit);
    tier1.push_back(next++);
  }
  // Dense core mesh; force a ring so the core (and thus everything) is
  // connected regardless of the peering probability.
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      const bool ring = (j == i + 1) || (i == 0 && j == tier1.size() - 1);
      if (ring || rng.chance(kTier1PeerProb)) {
        g.add_edge(tier1[i], tier1[j], bgp::Relationship::Peer);
      }
    }
  }

  // One provider pool per attachment phase, built from the degrees the
  // phase starts with; every edge a phase adds bumps its provider.
  std::vector<Asn> tier2;
  detail::ProviderPool tier1_pool(g, tier1);
  for (std::size_t i = 0; i < config.tier2; ++i) {
    g.add_node(next, AsKind::Transit);
    const std::size_t n_providers = 1 + (rng.chance(0.5) ? 1 : 0);
    attach_with_providers(g, next, n_providers, tier1_pool, rng);
    tier2.push_back(next++);
  }
  for (std::size_t i = 0; i < tier2.size(); ++i) {
    for (std::size_t j = i + 1; j < tier2.size(); ++j) {
      if (rng.chance(kTier2PeerProb)) {
        g.add_edge(tier2[i], tier2[j], bgp::Relationship::Peer);
      }
    }
  }

  std::vector<Asn> tier12 = tier1;
  tier12.insert(tier12.end(), tier2.begin(), tier2.end());

  std::vector<Asn> tier3;
  detail::ProviderPool tier12_pool(g, std::move(tier12));
  for (std::size_t i = 0; i < config.tier3; ++i) {
    g.add_node(next, AsKind::Transit);
    const std::size_t n_providers = 1 + (rng.chance(0.4) ? 1 : 0);
    attach_with_providers(g, next, n_providers, tier12_pool, rng);
    tier3.push_back(next++);
  }
  for (std::size_t i = 0; i < tier3.size(); ++i) {
    for (std::size_t j = i + 1; j < tier3.size(); ++j) {
      if (rng.chance(kTier3PeerProb)) {
        g.add_edge(tier3[i], tier3[j], bgp::Relationship::Peer);
      }
    }
  }

  std::vector<Asn> tier23 = tier2;
  tier23.insert(tier23.end(), tier3.begin(), tier3.end());

  // The two stub pools are disjoint, so each new edge bumps exactly the
  // pool its provider came from.
  detail::ProviderPool backbone(g, tier1);
  detail::ProviderPool regional(g, std::move(tier23));
  for (std::size_t i = 0; i < config.stubs; ++i) {
    g.add_node(next, AsKind::Stub);
    const double roll = rng.uniform01();
    std::size_t n_providers = 1;
    if (roll < config.stub_three_provider_prob) {
      n_providers = 3;
    } else if (roll < config.stub_three_provider_prob + config.stub_two_provider_prob) {
      n_providers = 2;
    }
    // A tiny core may hold fewer transits than the mix asks for.
    n_providers = std::min(n_providers, backbone.size() + regional.size());
    // Each provider slot independently goes to the backbone with a small
    // probability, otherwise to a regional/local ISP; a slot whose drawn
    // pool is used up takes the other one.
    AsnSet chosen;
    while (chosen.size() < n_providers) {
      detail::ProviderPool* pool =
          (regional.size() == 0 || rng.chance(kStubTier1Bias)) ? &backbone : &regional;
      if (pool->exhausted_by(chosen)) pool = pool == &backbone ? &regional : &backbone;
      const Asn provider = pool->pick(rng.uniform01(), chosen);
      chosen.insert(provider);
      g.add_edge(provider, next, bgp::Relationship::Customer);
      pool->bump(provider);
    }
    ++next;
  }

  MOAS_ENSURE(g.is_connected(), "generated Internet must be connected");
  return g;
}

}  // namespace moas::topo
