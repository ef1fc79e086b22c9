// Topological ranks over the customer→provider DAG.
//
// The wave propagation engine (moas/sim/wave_engine.h) replaces the event
// queue with three deterministic sweeps in rank order, the BGPExtrapolator
// propagate_up / propagate_down scheme: an AS's rank is the length of the
// longest customer chain below it, so sweeping ranks in ascending order
// delivers every customer-learned announcement before the provider that
// re-exports it is visited, and one up sweep carries a stub's origination
// all the way into the core.
#pragma once

#include <cstddef>
#include <vector>

#include "moas/topo/graph.h"

namespace moas::topo {

/// The rank-bucketed visit order the wave engine sweeps. An AS's rank is 0
/// when it has no customers, else 1 + the max rank of its customers (the
/// longest customer chain below it). Peer edges do not participate: ranks
/// are a property of the customer→provider hierarchy alone.
struct RankAssignment {
  /// levels[r] = the ASes at rank r, ascending ASN. Never contains an
  /// empty level: every rank up to max_rank() is populated.
  std::vector<std::vector<Asn>> levels;

  std::size_t max_rank() const { return levels.empty() ? 0 : levels.size() - 1; }
};

/// Compute ranks via Kahn's algorithm over the customer→provider edges.
/// Rejects (MOAS_REQUIRE) a graph whose customer-provider relationships
/// contain a cycle — ranks are undefined there, and the wave sweeps would
/// not terminate meaningfully. Peer edges are ignored.
RankAssignment rank_by_customer_cone(const AsGraph& graph);

}  // namespace moas::topo
