// Multi-prefix detection workload.
//
// The paper's sweeps study one victim prefix per run; real tables carry
// hundreds of thousands. This workload drives the rank-ordered wave engine
// with thousands of victim prefixes on one topology — block-iterated so the
// in-flight update set stays bounded — to exercise the interned-path /
// compact-RIB memory model at table scale and to extend the fig10 curves
// into the 10k+-AS, multi-prefix regime. Each attacked prefix gets its own
// attacker AS (a router has a single export filter, so one compromised AS
// suppresses exactly one victim block), every origin is a stub, and
// detectors run network-wide (or a sampled subset) against an oracle
// registry, exactly like a single-prefix wave run.
#pragma once

#include <cstdint>
#include <functional>

#include "moas/core/attacker.h"
#include "moas/core/experiment.h"
#include "moas/topo/graph.h"

namespace moas::core {

struct MultiPrefixConfig {
  /// Victim prefixes (10.x.y.0/24, index-major). Max 65,536.
  std::size_t num_prefixes = 1024;
  /// Prefixes originated + attacked per propagate() block. Bounds the
  /// in-flight update set; the fixpoint is identical for any block size.
  std::size_t block_size = 256;
  /// Valid origins drawn (distinct stubs) per prefix; >1 attaches a MOAS
  /// list, width-split across classic and large communities.
  std::size_t origins_per_prefix = 1;
  /// Leading share of prefixes that also get a false origination.
  double attacked_fraction = 1.0;
  AttackerStrategy strategy = AttackerStrategy::OwnList;
  bgp::PolicyMode policy = bgp::PolicyMode::ShortestPath;
  Deployment deployment = Deployment::Full;
  double deployment_fraction = 0.5;  // capable share under Partial
  std::uint64_t seed = 0;
  /// Workers that drain each wave sweep and account the RIBs; 0 =
  /// util::ThreadPool::default_jobs(). Every result field but
  /// propagation_seconds is identical for any value.
  std::size_t jobs = 0;
};

struct MultiPrefixResult {
  std::size_t prefixes = 0;
  std::size_t attacked = 0;
  std::size_t blocks = 0;  // propagate() calls issued

  /// Alarm totals across all prefixes (attacker-implicating vs not).
  std::size_t alarms = 0;
  std::size_t false_alarms = 0;

  /// Per-(attacked prefix, non-attacker AS) outcome tallies — the fig9/10
  /// scoring applied to every attacked prefix and summed.
  std::size_t adopted_false = 0;
  std::size_t adopted_valid = 0;
  std::size_t no_route = 0;

  /// Converged Loc-RIB entries summed over all routers.
  std::size_t routes_installed = 0;
  /// Adj-RIB-In + Loc-RIB entries summed over all routers — the
  /// denominator of the bytes/route footprint gate.
  std::size_t rib_entries = 0;
  /// Adj-RIB-In + Loc-RIB container bytes summed over all routers
  /// (structural storage only; shared interned path/set data is reported
  /// separately by bgp::intern::pool_stats).
  std::size_t rib_bytes = 0;
  /// The same tables under the pre-interning layout, modeled entry by
  /// entry in this run: every entry owns a private deep copy of its
  /// attribute heap (path segments, community values), the three attribute
  /// handles are inline vector headers again (+16 bytes each), and entries
  /// sit in std::map red-black nodes (+32 bytes per entry and per prefix
  /// row; conservative — malloc chunk overhead is ignored).
  /// micro_rib_footprint gates interned bytes/route strictly below this.
  std::size_t baseline_rib_bytes = 0;
  /// MoasDetector per-prefix state bytes summed over all detectors
  /// (MoasDetector::state_bytes), reported next to the RIB bytes. Reference
  /// lists count as handles; the shared MOAS-list pool is not charged.
  std::size_t detector_bytes = 0;

  double propagation_seconds = 0.0;  // wall clock inside propagate()

  double adopted_false_fraction() const {
    const std::size_t population = adopted_false + adopted_valid + no_route;
    return population == 0
               ? 0.0
               : static_cast<double>(adopted_false) / static_cast<double>(population);
  }
};

/// The index-th victim prefix: 10.(i/256).(i%256).0/24.
net::Prefix multi_prefix_victim(std::size_t index);

/// Sees every router of a converged run, in ascending ASN order, before
/// the engine is torn down.
using ConvergedRouterVisitor = std::function<void(const bgp::Router&)>;

/// Run the workload to its fixpoint. Requires a connected graph with at
/// least origins_per_prefix stubs and enough non-origin ASes to give every
/// attacked prefix a distinct attacker. `visit`, if set, inspects the
/// converged routers (tests compare Loc-RIBs across job counts with it).
MultiPrefixResult run_multi_prefix(const topo::AsGraph& graph,
                                   const MultiPrefixConfig& config,
                                   const ConvergedRouterVisitor& visit = {});

}  // namespace moas::core
