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
//
// Parallel sweeps (DESIGN.md §10). Given a util::ThreadPool with more than
// one worker, each sweep runs as a list of dependency groups instead of
// levels: a node's depth is one more than the deepest of its *bucket
// neighbours* (the peers whose exports it drains in this sweep, or which
// drain its exports) that come before it in the level order, and each
// group drains across the workers in small dynamic chunks. No two nodes of
// a group are bucket neighbours, and every neighbour that precedes a node
// in level order sits in an earlier group, so each node drains exactly the
// updates the serial level-order sweep would hand it: the outcome is
// bit-identical for any worker count. Without a pool the groups are the
// levels themselves, drained serially in level order. Runs that share
// order-dependent state across routers (a seeded resolver drawing per
// query, as Experiment::run_wave's DNS model does) must stay without a
// pool: another drain order hands the draws to other queries.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "moas/bgp/router.h"
#include "moas/topo/graph.h"

namespace moas::obs {
class MetricsRegistry;
}

namespace moas::util {
class ThreadPool;
}

namespace moas::sim {

class WaveEngine {
 public:
  /// Builds one router per AS, under `mode`, and registers every peering.
  /// `graph` must outlive the engine; its customer-provider relationships
  /// must be acyclic (rank_by_customer_cone rejects the rest). `pool`, if
  /// it has more than one worker, drains the sweeps' dependency groups; it
  /// must outlive every propagate() call. Every validator and export
  /// filter installed on the routers must then be safe to call from
  /// several routers at once (MoasDetector on an OracleResolver is).
  WaveEngine(const topo::AsGraph& graph, bgp::PolicyMode mode,
             util::ThreadPool* pool = nullptr);

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

  /// The groups one sweep drains, in order, as ASNs: the sweep that
  /// delivers what `from_rel` neighbours sent (Customer = up, Peer =
  /// across, Provider = down). Levels without a pool, dependency groups
  /// with one.
  std::vector<std::vector<bgp::Asn>> sweep_groups(bgp::Relationship from_rel) const;
  /// Up/across/down cycles run so far (across all propagate() calls).
  std::size_t cycles() const { return cycles_; }
  /// Updates actually delivered to a router (post-collapse).
  std::uint64_t deliveries() const;
  /// Updates superseded in flight by a newer one for the same
  /// (sender, receiver, prefix) before delivery.
  std::uint64_t collapsed() const;

  /// Per-router "router.*" counters plus the engine's own: the event
  /// engine's network.messages_sent maps to delivered updates,
  /// sim.events_executed is 0 (there is no event queue), and
  /// wave.cycles / wave.updates_collapsed describe the sweeps.
  void collect_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// One persistent mailbox per directed peering: enqueue indexes the
  /// sender's slot list with the index its router hands back and
  /// appends/overwrites in a small flat vector whose capacity survives
  /// across sweeps — in steady state the engine allocates nothing and
  /// searches nothing on the send path.
  struct Slot {
    bgp::Asn from = bgp::kNoAs;
    /// Receiver's node index and bucket, so enqueue can maintain the
    /// receiver's dirty count without a second lookup.
    std::uint32_t owner = 0;
    std::uint8_t bucket_index = 0;
    /// In-flight updates, newest per prefix (unsorted; the drain sorts).
    std::vector<std::pair<net::Prefix, bgp::Update>> entries;
  };

  /// One worker's share of the engine's mutable bookkeeping. Sums over the
  /// lanes are the engine's totals; lane 0 also serves the calling thread.
  struct alignas(64) Lane {
    /// In-flight updates this lane added minus those it drained (a lane
    /// may drain what another enqueued, so one lane can go negative).
    std::int64_t pending = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t collapsed = 0;
    /// Drain scratch, swapped with a slot's entries during delivery so a
    /// (theoretical) reentrant enqueue could never invalidate the
    /// iteration; capacities circulate instead of being reallocated.
    std::vector<std::pair<net::Prefix, bgp::Update>> scratch;
    /// Per-drain list of prefixes whose Adj-RIB-In changed (reused buffer).
    std::vector<net::Prefix> dirty_prefixes;
  };

  struct Node {
    std::unique_ptr<bgp::Router> router;
    /// The lane of the worker draining this node, so the router's exports
    /// account there (set before each drain; only that worker reads it).
    std::uint32_t lane = 0;
    /// This node's outbound slots as (receiver, slot), in wiring order:
    /// the router was given each entry's index as that peer's transport
    /// slot, and enqueue indexes this table with it.
    std::vector<std::pair<bgp::Asn, Slot*>> out;
    /// This node's inbound slots bucketed by the receiver's relationship
    /// view of the sender (index = bgp::Relationship), sender-ascending —
    /// a sweep drains its bucket directly, in deterministic order.
    std::vector<Slot*> bucket[3];
    /// Non-empty slots per bucket: a sweep skips clean nodes outright and
    /// a drain stops scanning once it has seen them all — in late cycles
    /// almost every node is clean, so this is what keeps an
    /// almost-converged sweep cheap. Senders bump it atomically (two
    /// nodes of one group may feed the same third node's other buckets).
    std::uint32_t dirty[3] = {0, 0, 0};
  };

  /// Queue `update` from node `sender` to `to`; `out` is the index of the
  /// peering in the sender's Node::out.
  void enqueue(std::uint32_t sender, bgp::Asn to, std::uint32_t out, bgp::Update update);
  void deliver(Node& node, std::size_t bucket_index, Lane& lane);
  void sweep(bgp::Relationship from_rel);
  /// Drain every dirty node of one dependency group across the pool.
  void drain_group(const std::vector<std::uint32_t>& group, std::size_t bucket_index);
  /// Sweep order for `bucket_index` as groups of node indices: `levels`
  /// (reversed for the down sweep), or their dependency groups.
  std::vector<std::vector<std::uint32_t>> build_groups(
      std::vector<std::vector<std::uint32_t>> levels, std::size_t bucket_index,
      bool dependency) const;
  std::size_t pending() const;

  const topo::AsGraph* graph_;
  /// Null unless the caller's pool has more than one worker.
  util::ThreadPool* pool_ = nullptr;
  /// Fixpoint guard: maximum up/across/down cycles one propagate() call
  /// may run before the engine declares non-convergence (MOAS_ENSURE) —
  /// node_count + 16, far beyond any propagation diameter.
  std::size_t cycle_cap_;
  /// Routers in a flat array with an O(1) ASN index for router().
  std::vector<Node> nodes_;
  std::unordered_map<bgp::Asn, std::uint32_t> index_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Per sweep (indexed by bucket), the node groups it drains in order.
  std::vector<std::vector<std::uint32_t>> groups_[3];
  std::vector<Lane> lanes_;  // one per pool worker (one without a pool)
  std::vector<std::uint32_t> ready_;  // a group's dirty nodes (reused buffer)
  std::size_t cycles_ = 0;
};

}  // namespace moas::sim
