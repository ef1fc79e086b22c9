// Synthetic Internet-like AS topology generator.
//
// Public RouteViews/CAIDA archives are not available offline, so the
// experiments draw their "full Internet" from this generator instead (see
// DESIGN.md, substitution table). It produces the features the paper's
// sampling procedure and detection argument rely on:
//  - a small, densely meshed tier-1 core,
//  - regional and local transit tiers attached by preferential attachment
//    (yielding a heavy-tailed degree distribution, cf. Huston's analysis),
//    drawn through a Fenwick tree in O(log pool) per pick,
//  - a large population (~85%) of stub ASes, many of them multi-homed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
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

/// One provider pool of generate_internet's preferential attachment: a
/// Fenwick tree over the members' (degree + 1) weights, indexed by pool
/// position, so a draw and a weight update each cost O(log pool).
class ProviderPool {
 public:
  /// Snapshot the members' current degrees in `g`. Members must be distinct
  /// nodes of `g`.
  ProviderPool(const AsGraph& g, std::vector<Asn> members);

  std::size_t size() const { return members_.size(); }

  /// `asn` gained one edge; a no-op for non-members.
  void bump(Asn asn);

  /// True when every member is in `exclude`.
  bool exhausted_by(const AsnSet& exclude) const;

  /// The degree-weighted draw. `roll01` in [0, 1] selects the first
  /// non-excluded member, in pool order, whose integer prefix sum of
  /// eligible weights is >= roll01 · total. That is exactly the member a
  /// sequential `target -= weight` scan returns: the weights are integers
  /// and every total is far below 2^53, so each subtraction before the one
  /// that crosses zero is exact, and rounding keeps that step's sign. As
  /// roll01 · total <= total, the draw always lands on an eligible member.
  /// Throws InvariantError when every member is excluded.
  Asn pick(double roll01, const AsnSet& exclude);

 private:
  void add(std::size_t pos, std::int64_t delta);

  std::vector<Asn> members_;
  std::unordered_map<Asn, std::size_t> position_;
  std::vector<std::int64_t> weight_;  // by position
  std::vector<std::int64_t> tree_;    // 1-based Fenwick tree over weight_
  std::int64_t total_ = 0;
};

/// A single draw from a fresh ProviderPool over `pool`, with the roll made
/// explicit so tests can pin the boundary behavior. The eligible pool must
/// be non-empty.
Asn pick_weighted_provider(const AsGraph& g, const std::vector<Asn>& pool, double roll01,
                           const AsnSet& exclude);

}  // namespace detail

}  // namespace moas::topo
