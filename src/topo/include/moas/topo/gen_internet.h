// Synthetic Internet-like AS topology generator.
//
// Public RouteViews/CAIDA archives are not available offline, so the
// experiments draw their "full Internet" from this generator instead (see
// DESIGN.md, substitution table). It produces the features the paper's
// sampling procedure and detection argument rely on:
//  - a small, densely meshed tier-1 core,
//  - regional and local transit tiers attached by preferential attachment
//    (yielding a heavy-tailed degree distribution, cf. Huston's analysis),
//  - a large population (~85%) of stub ASes, many of them multi-homed.
#pragma once

#include <cstddef>
#include <vector>

#include "moas/topo/graph.h"
#include "moas/util/rng.h"

namespace moas::topo {

// Defaults are calibrated (see DESIGN.md) so that topologies sampled at the
// paper's three sizes reproduce the paper's per-topology robustness: the
// scale approximates the 2001 Internet (~10k ASes), and BGP-visible stubs
// are predominantly multi-homed — which is what gives the larger samples
// their resilience (the 7.8%-at-630-ASes headline).
struct InternetConfig {
  std::size_t tier1 = 12;    // global transit core
  std::size_t tier2 = 240;   // regional transit
  std::size_t tier3 = 500;   // local transit
  std::size_t stubs = 9000;  // edge networks

  /// Stub multi-homing mix: P(2 providers), P(3 providers); remainder is
  /// single-homed.
  double stub_two_provider_prob = 0.55;
  double stub_three_provider_prob = 0.30;

  /// ASNs are assigned sequentially from here.
  Asn first_asn = 1;
};

/// Generate; the result is guaranteed connected (tier-1 backbone plus
/// provider chains reach every node).
AsGraph generate_internet(const InternetConfig& config, util::Rng& rng);

namespace detail {

/// The degree-weighted provider draw behind generate_internet's
/// preferential attachment, exposed with the roll made explicit so tests
/// can pin the boundary behavior. `roll01` in [0, 1] selects from the
/// cumulative (degree + 1) weights over the non-excluded pool entries;
/// floating-point slack at roll01 == 1 resolves to the last candidate the
/// weighted scan visited. The eligible pool must be non-empty.
Asn pick_weighted_provider(const AsGraph& g, const std::vector<Asn>& pool, double roll01,
                           const AsnSet& exclude);

}  // namespace detail

}  // namespace moas::topo
