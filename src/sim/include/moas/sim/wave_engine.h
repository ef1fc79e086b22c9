// Rank-ordered wave propagation: converged Loc-RIBs without the event queue.
//
// The event engine pays for thousands of timed per-message events per run;
// this engine computes the same fixpoint by delivering announcements in
// three deterministic sweeps over the customer→provider rank order
// (topo::rank_by_customer_cone), the BGPExtrapolator propagate_up /
// propagate_down scheme:
//
//   1. up     — ascending rank, each AS ingests what its *customers* sent:
//               one sweep carries a stub origination into the core;
//   2. across — each AS ingests what its *peers* sent;
//   3. down   — descending rank, each AS ingests what its *providers* sent:
//               one sweep carries core routes back out to every stub.
//
// Under Gao–Rexford export policy one up/across/down cycle propagates
// almost everything (valley-free paths climb, cross at most one peer edge,
// then descend); under ShortestPath export (announce to everyone) routes
// also travel customer-ward and the cycle repeats until no announcement is
// in flight. Either way the engine iterates to a fixpoint, so detector
// purges (RouterContext::invalidate_origins) and attacker suppression
// filters settle exactly like they do under the event engine.
//
// Each AS is a real bgp::Router (null clock) — import validation, export
// policy, split horizon, duplicate suppression, export filters, community
// stripping and the decision process are byte-for-byte the event engine's
// code. The one deliberate difference: routers run with
// prefer_established=false, because "which route arrived first" is an
// event-time concept a timeless engine cannot reproduce (DESIGN.md §10).
// In-flight updates are collapsed per (sender, receiver, prefix) — only the
// newest matters, which is what makes one sweep O(edges).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "moas/bgp/router.h"
#include "moas/topo/graph.h"
#include "moas/topo/rank.h"

namespace moas::obs {
class MetricsRegistry;
}

namespace moas::sim {

class WaveEngine {
 public:
  /// Builds one router per AS, under `mode`, and registers every peering.
  /// `graph` must outlive the engine; its customer-provider relationships
  /// must be acyclic (rank_by_customer_cone rejects the rest).
  WaveEngine(const topo::AsGraph& graph, bgp::PolicyMode mode);

  /// The per-AS router — configure validators, export filters, community
  /// stripping, and originations through it exactly like on a Network
  /// router. Event-time features (MRAI, graceful restart) need a
  /// clock and are rejected by the Router itself.
  bgp::Router& router(bgp::Asn asn);
  const bgp::Router& router(bgp::Asn asn) const;
  bool has_router(bgp::Asn asn) const { return index_.contains(asn); }

  /// Deliver every in-flight announcement in rank-ordered sweeps until
  /// nothing is in flight. Incremental: originate more routes (or purge
  /// some) afterwards and propagate() again to reach the new fixpoint.
  void propagate();

  std::optional<bgp::Asn> best_origin(bgp::Asn asn, const net::Prefix& prefix) const {
    return router(asn).best_origin(prefix);
  }

  const topo::RankAssignment& ranks() const { return ranks_; }
  /// Up/across/down cycles run so far (across all propagate() calls).
  std::size_t cycles() const { return cycles_; }
  /// Updates actually delivered to a router (post-collapse).
  std::uint64_t deliveries() const { return deliveries_; }
  /// Updates superseded in flight by a newer one for the same
  /// (sender, receiver, prefix) before delivery.
  std::uint64_t collapsed() const { return collapsed_; }

  /// Per-router "router.*" counters plus the engine's own: the event
  /// engine's network.messages_sent maps to delivered updates,
  /// sim.events_executed is 0 (there is no event queue), and
  /// wave.cycles / wave.updates_collapsed describe the sweeps.
  void collect_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// One persistent mailbox per directed peering: enqueue resolves a single
  /// hash on the (from, to) pair and appends/overwrites in a small flat
  /// vector whose capacity survives across sweeps — the per-message cost
  /// is an order of magnitude below the map-of-maps this replaces, and in
  /// steady state the engine allocates nothing on the send path.
  struct Slot {
    bgp::Asn from = bgp::kNoAs;
    /// Receiver's node index and bucket, so enqueue can maintain the
    /// receiver's dirty count without a second lookup.
    std::uint32_t owner = 0;
    std::uint8_t bucket_index = 0;
    /// In-flight updates, newest per prefix (unsorted; the drain sorts).
    std::vector<std::pair<net::Prefix, bgp::Update>> entries;
  };

  struct Node {
    std::size_t rank = 0;
    std::unique_ptr<bgp::Router> router;
    /// This node's inbound slots bucketed by the receiver's relationship
    /// view of the sender (index = bgp::Relationship), sender-ascending —
    /// a sweep drains its bucket directly, in deterministic order.
    std::vector<Slot*> bucket[3];
    /// Non-empty slots per bucket: a sweep skips clean nodes outright and
    /// a drain stops scanning once it has seen them all — in late cycles
    /// almost every node is clean, so this is what keeps an
    /// almost-converged sweep cheap.
    std::uint32_t dirty[3] = {0, 0, 0};
  };

  void enqueue(bgp::Asn from, bgp::Asn to, bgp::Update update);
  void deliver(Node& node, std::size_t bucket_index);
  void sweep(bgp::Relationship from_rel, bool descending);

  static std::uint64_t edge_key(bgp::Asn from, bgp::Asn to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  const topo::AsGraph* graph_;
  /// Fixpoint guard: maximum up/across/down cycles before the engine
  /// declares non-convergence (MOAS_ENSURE) — node_count + 16, far beyond
  /// any propagation diameter.
  std::size_t cycle_cap_;
  topo::RankAssignment ranks_;
  /// Routers in a flat array with an O(1) ASN index: enqueue runs once per
  /// message, and a rank-9752 std::map walk per message was the single
  /// hottest line of the engine.
  std::vector<Node> nodes_;
  std::unordered_map<bgp::Asn, std::uint32_t> index_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<std::uint64_t, Slot*> slot_of_;  // keyed by edge_key
  /// ranks_.levels translated to node indices for sweep iteration.
  std::vector<std::vector<std::uint32_t>> level_indices_;
  /// Drain scratch, swapped with a slot's entries during delivery so a
  /// (theoretical) reentrant enqueue could never invalidate the iteration;
  /// capacities circulate instead of being reallocated.
  std::vector<std::pair<net::Prefix, bgp::Update>> scratch_;
  /// Per-drain list of prefixes whose Adj-RIB-In changed (reused buffer).
  std::vector<net::Prefix> dirty_prefixes_;
  std::size_t pending_ = 0;  // in-flight updates across all slots
  std::size_t cycles_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t collapsed_ = 0;
};

}  // namespace moas::sim
