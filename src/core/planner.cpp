#include "moas/core/planner.h"

#include <algorithm>
#include <map>

#include "moas/util/assert.h"

namespace moas::core {

const char* to_string(DeploymentStrategy strategy) {
  switch (strategy) {
    case DeploymentStrategy::Random: return "random";
    case DeploymentStrategy::DegreeRanked: return "degree-ranked";
    case DeploymentStrategy::GreedyCoverage: return "greedy-coverage";
  }
  return "?";
}

bgp::AsnSet plan_deployment(const topo::AsGraph& graph, std::size_t count,
                            DeploymentStrategy strategy, util::Rng& rng) {
  const std::vector<bgp::Asn> nodes = graph.nodes();
  MOAS_REQUIRE(count <= nodes.size(), "cannot deploy at more ASes than exist");
  bgp::AsnSet deployed;

  switch (strategy) {
    case DeploymentStrategy::Random: {
      std::vector<bgp::Asn> picked;
      for (std::size_t i : rng.sample_indices(nodes.size(), count)) picked.push_back(nodes[i]);
      deployed.insert(picked.begin(), picked.end());  // one sort, not `count` inserts
      break;
    }
    case DeploymentStrategy::DegreeRanked: {
      std::vector<bgp::Asn> ranked = nodes;
      std::sort(ranked.begin(), ranked.end(), [&](bgp::Asn a, bgp::Asn b) {
        const auto da = graph.degree(a);
        const auto db = graph.degree(b);
        if (da != db) return da > db;
        return a < b;  // deterministic tie-break
      });
      deployed.insert(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(count));
      break;
    }
    case DeploymentStrategy::GreedyCoverage: {
      // Greedy max-coverage over edges: each step takes the node covering
      // the most yet-uncovered adjacencies.
      std::map<bgp::Asn, std::size_t> uncovered_degree;
      for (bgp::Asn asn : nodes) uncovered_degree[asn] = graph.degree(asn);
      while (deployed.size() < count) {
        bgp::Asn best = bgp::kNoAs;
        std::size_t best_gain = 0;
        for (bgp::Asn asn : nodes) {
          if (deployed.contains(asn)) continue;
          const std::size_t gain = uncovered_degree[asn];
          if (best == bgp::kNoAs || gain > best_gain || (gain == best_gain && asn < best)) {
            best = asn;
            best_gain = gain;
          }
        }
        deployed.insert(best);
        // Edges incident to `best` are now covered.
        uncovered_degree[best] = 0;
        for (const auto& [nbr, _] : graph.neighbors(best)) {
          if (!deployed.contains(nbr) && uncovered_degree[nbr] > 0) {
            --uncovered_degree[nbr];
          }
        }
      }
      break;
    }
  }
  MOAS_ENSURE(deployed.size() == count, "planner produced the wrong deployment size");
  return deployed;
}

double edge_coverage(const topo::AsGraph& graph, const bgp::AsnSet& deployed) {
  const auto edges = graph.edges();
  if (edges.empty()) return 0.0;
  std::size_t covered = 0;
  for (const auto& edge : edges) {
    if (deployed.contains(edge.a) || deployed.contains(edge.b)) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(edges.size());
}

}  // namespace moas::core
