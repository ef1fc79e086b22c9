#include "moas/topo/sampler.h"

#include <cmath>
#include <cstdlib>

#include "moas/util/assert.h"

namespace moas::topo {

namespace {

/// Iterative pruning: transit ASes need >= 2 peers to be meaningful transit;
/// stubs need >= 1 provider to be attached at all.
void prune(AsGraph& g) {
  bool again = true;
  while (again) {
    again = false;
    for (Asn asn : g.nodes()) {
      const std::size_t deg = g.degree(asn);
      const bool doomed = g.is_transit(asn) ? deg <= 1 : deg == 0;
      if (doomed) {
        g.remove_node(asn);
        again = true;
      }
    }
  }
}

}  // namespace

AsGraph sample_topology(const AsGraph& internet, double stub_fraction, util::Rng& rng) {
  MOAS_REQUIRE(stub_fraction > 0.0 && stub_fraction <= 1.0,
               "stub fraction must be in (0, 1]");

  const std::vector<Asn> stubs = internet.stubs();
  MOAS_REQUIRE(!stubs.empty(), "internet graph has no stub ASes");
  std::size_t want = static_cast<std::size_t>(std::lround(stub_fraction *
                                                          static_cast<double>(stubs.size())));
  if (want == 0) want = 1;

  std::vector<Asn> keep;
  for (std::size_t i : rng.sample_indices(stubs.size(), want)) {
    const Asn stub = stubs[i];
    keep.push_back(stub);
    // "and their ISP peers": every transit neighbor comes along.
    for (const auto& [nbr, _] : internet.neighbors(stub)) {
      if (internet.is_transit(nbr)) keep.push_back(nbr);
    }
  }

  AsGraph sampled = internet.induced(AsnSet(keep.begin(), keep.end()));
  prune(sampled);
  if (sampled.node_count() == 0) return sampled;
  AsGraph out = sampled.largest_component();
  MOAS_ENSURE(out.is_connected(), "sampled topology must be connected");
  return out;
}

AsGraph sample_to_size(const AsGraph& internet, std::size_t target_nodes, util::Rng& rng,
                       double tolerance, int max_attempts) {
  MOAS_REQUIRE(target_nodes >= 3, "target size too small");
  double fraction = static_cast<double>(target_nodes) /
                    static_cast<double>(internet.node_count());
  if (fraction > 1.0) fraction = 1.0;

  AsGraph best;
  double best_err = -1.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    AsGraph candidate = sample_topology(internet, fraction, rng);
    const double got = static_cast<double>(candidate.node_count());
    const double err =
        std::abs(got - static_cast<double>(target_nodes)) / static_cast<double>(target_nodes);
    if (best_err < 0.0 || err < best_err) {
      best = candidate;
      best_err = err;
    }
    if (err <= tolerance) break;
    // Retune: the sampled size grows roughly linearly with the fraction.
    if (got > 0) {
      fraction *= static_cast<double>(target_nodes) / got;
      if (fraction > 1.0) fraction = 1.0;
      if (fraction < 1e-4) fraction = 1e-4;
    } else {
      fraction *= 2.0;
    }
  }
  MOAS_ENSURE(best.node_count() > 0, "sampling produced an empty topology");
  return best;
}

}  // namespace moas::topo
