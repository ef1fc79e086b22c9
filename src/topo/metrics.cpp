#include "moas/topo/metrics.h"

#include <cmath>
#include <deque>
#include <unordered_set>

#include "moas/util/assert.h"
#include "moas/util/rng.h"

namespace moas::topo {

DegreeStats degree_stats(const AsGraph& graph) {
  DegreeStats stats;
  double sum = 0.0;
  double log_sum = 0.0;
  std::size_t tail_n = 0;
  constexpr double x_min = 2.0;
  for (Asn asn : graph.nodes()) {
    const std::size_t d = graph.degree(asn);
    ++stats.histogram[d];
    sum += static_cast<double>(d);
    stats.max = std::max(stats.max, d);
    if (static_cast<double>(d) >= x_min) {
      log_sum += std::log(static_cast<double>(d) / (x_min - 0.5));
      ++tail_n;
    }
  }
  if (graph.node_count() > 0) sum /= static_cast<double>(graph.node_count());
  stats.mean = sum;
  if (tail_n > 0 && log_sum > 0.0) {
    stats.power_law_alpha = 1.0 + static_cast<double>(tail_n) / log_sum;
  }
  return stats;
}

double fraction_cut_off(const AsGraph& graph, const AsnSet& sources, const AsnSet& removed) {
  MOAS_REQUIRE(!sources.empty(), "need at least one source");
  // Multi-source BFS avoiding removed nodes.
  std::unordered_set<Asn> seen;  // grows to graph size: hashed, not flat
  std::deque<Asn> frontier;
  for (Asn s : sources) {
    MOAS_REQUIRE(graph.has_node(s), "source not in graph");
    if (removed.contains(s)) continue;  // a cut source reaches nobody
    seen.insert(s);
    frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const Asn cur = frontier.front();
    frontier.pop_front();
    for (const auto& [nbr, _] : graph.neighbors(cur)) {
      if (removed.contains(nbr) || !seen.insert(nbr).second) continue;
      frontier.push_back(nbr);
    }
  }
  std::size_t population = 0;
  std::size_t cut = 0;
  for (Asn asn : graph.nodes()) {
    if (sources.contains(asn) || removed.contains(asn)) continue;
    ++population;
    if (!seen.contains(asn)) ++cut;
  }
  if (population == 0) return 0.0;
  return static_cast<double>(cut) / static_cast<double>(population);
}

double mean_path_length(const AsGraph& graph, std::size_t samples, std::uint64_t seed) {
  const std::vector<Asn> nodes = graph.nodes();
  MOAS_REQUIRE(nodes.size() >= 2, "need at least two nodes");
  util::Rng rng(seed);
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const Asn a = rng.pick(nodes);
    const Asn b = rng.pick(nodes);
    if (a == b) continue;
    // BFS distance a -> b.
    std::map<Asn, unsigned> depth{{a, 0}};
    std::deque<Asn> frontier{a};
    bool found = false;
    while (!frontier.empty() && !found) {
      const Asn cur = frontier.front();
      frontier.pop_front();
      for (const auto& [nbr, _] : graph.neighbors(cur)) {
        if (depth.contains(nbr)) continue;
        depth[nbr] = depth[cur] + 1;
        if (nbr == b) {
          found = true;
          break;
        }
        frontier.push_back(nbr);
      }
    }
    if (found) {
      total += depth[b];
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace moas::topo
