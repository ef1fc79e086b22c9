#include "moas/topo/rank.h"

#include <algorithm>

#include "moas/util/assert.h"
#include "moas/util/flat_map.h"

namespace moas::topo {

RankAssignment rank_by_customer_cone(const AsGraph& graph) {
  // Kahn's algorithm with longest-path level assignment: a node's rank is
  // final once every customer below it has been processed, so a node is
  // queued exactly when its pending-customer count hits zero. If the queue
  // drains before every node was processed, the leftover nodes all sit on a
  // customer-provider cycle.
  struct State {
    std::size_t pending_customers = 0;
    std::size_t rank = 0;  // running max of 1 + rank(customer); final once queued
  };
  util::FlatMap<Asn, State> state;
  state.reserve(graph.node_count());
  std::vector<Asn> queue;
  queue.reserve(graph.node_count());
  for (Asn asn : graph.nodes()) {  // ascending: every emplace appends
    const auto row = graph.neighbors(asn);
    const auto customers = static_cast<std::size_t>(
        std::count_if(row.begin(), row.end(), [](const AsGraph::Neighbor& n) {
          return n.second == bgp::Relationship::Customer;
        }));
    state.try_emplace(asn, State{customers, 0});
    if (customers == 0) queue.push_back(asn);
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Asn asn = queue[head];
    const std::size_t rank = state.find(asn)->second.rank;
    for (const auto& [provider, rel] : graph.neighbors(asn)) {
      if (rel != bgp::Relationship::Provider) continue;
      State& up = state.find(provider)->second;
      up.rank = std::max(up.rank, rank + 1);
      MOAS_REQUIRE(up.pending_customers > 0, "asymmetric customer-provider edge annotations");
      if (--up.pending_customers == 0) queue.push_back(provider);
    }
  }

  MOAS_REQUIRE(queue.size() == graph.node_count(),
               "customer-provider relationships contain a cycle — topological ranks "
               "are undefined");

  RankAssignment out;
  std::size_t max_rank = 0;
  for (const auto& [asn, s] : state) max_rank = std::max(max_rank, s.rank);
  if (!state.empty()) out.levels.resize(max_rank + 1);
  // Bucket in table order so every level lists its ASes in ascending ASN —
  // the deterministic visit order the wave sweeps rely on.
  for (const auto& [asn, s] : state) out.levels[s.rank].push_back(asn);
  for (const auto& level : out.levels) {
    MOAS_ENSURE(!level.empty(), "rank levels must be contiguous");
  }
  return out;
}

}  // namespace moas::topo
