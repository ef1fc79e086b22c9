#include "moas/topo/gen_internet.h"

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

/// Degree-weighted provider choice (preferential attachment, +1 smoothing so
/// fresh nodes can be picked). `pool` must be non-empty.
Asn pick_provider(const AsGraph& g, const std::vector<Asn>& pool, util::Rng& rng,
                  const AsnSet& exclude) {
  return detail::pick_weighted_provider(g, pool, rng.uniform01(), exclude);
}

void attach_with_providers(AsGraph& g, Asn node, std::size_t n_providers,
                           const std::vector<Asn>& pool, util::Rng& rng) {
  AsnSet chosen;
  const std::size_t want = std::min(n_providers, pool.size());
  while (chosen.size() < want) {
    const Asn provider = pick_provider(g, pool, rng, chosen);
    chosen.insert(provider);
    // provider sees `node` as its customer.
    g.add_edge(provider, node, bgp::Relationship::Customer);
  }
}

}  // namespace

namespace detail {

Asn pick_weighted_provider(const AsGraph& g, const std::vector<Asn>& pool, double roll01,
                           const AsnSet& exclude) {
  double total = 0.0;
  for (Asn asn : pool) {
    if (exclude.contains(asn)) continue;
    total += static_cast<double>(g.degree(asn)) + 1.0;
  }
  MOAS_ENSURE(total > 0.0, "provider pool exhausted");
  double target = roll01 * total;
  // One pass over the cumulative weights. The scan itself remembers the
  // last eligible candidate it visited: when floating-point slack leaves
  // target marginally positive after the final subtraction (roll01 at or
  // rounding to 1), the leftover sliver belongs to that candidate — the one
  // whose weight interval ends at `total`. The old fallback re-scanned the
  // pool from the back instead of resolving within the weighted scan.
  Asn last_visited = bgp::kNoAs;
  for (Asn asn : pool) {
    if (exclude.contains(asn)) continue;
    target -= static_cast<double>(g.degree(asn)) + 1.0;
    if (target <= 0.0) return asn;
    last_visited = asn;
  }
  MOAS_ENSURE(last_visited != bgp::kNoAs, "unreachable");
  return last_visited;
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

  std::vector<Asn> tier2;
  for (std::size_t i = 0; i < config.tier2; ++i) {
    g.add_node(next, AsKind::Transit);
    const std::size_t n_providers = 1 + (rng.chance(0.5) ? 1 : 0);
    attach_with_providers(g, next, n_providers, tier1, rng);
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
  for (std::size_t i = 0; i < config.tier3; ++i) {
    g.add_node(next, AsKind::Transit);
    const std::size_t n_providers = 1 + (rng.chance(0.4) ? 1 : 0);
    attach_with_providers(g, next, n_providers, tier12, rng);
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

  for (std::size_t i = 0; i < config.stubs; ++i) {
    g.add_node(next, AsKind::Stub);
    const double roll = rng.uniform01();
    std::size_t n_providers = 1;
    if (roll < config.stub_three_provider_prob) {
      n_providers = 3;
    } else if (roll < config.stub_three_provider_prob + config.stub_two_provider_prob) {
      n_providers = 2;
    }
    // Each provider slot independently goes to the backbone with a small
    // probability, otherwise to a regional/local ISP.
    AsnSet chosen;
    while (chosen.size() < n_providers) {
      const std::vector<Asn>& pool =
          (tier23.empty() || rng.chance(kStubTier1Bias)) ? tier1 : tier23;
      const Asn provider = pick_provider(g, pool, rng, chosen);
      chosen.insert(provider);
      g.add_edge(provider, next, bgp::Relationship::Customer);
    }
    ++next;
  }

  MOAS_ENSURE(g.is_connected(), "generated Internet must be connected");
  return g;
}

}  // namespace moas::topo
