#include "moas/sim/wave_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "moas/obs/metrics.h"
#include "moas/topo/rank.h"
#include "moas/util/assert.h"
#include "moas/util/thread_pool.h"

namespace moas::sim {

WaveEngine::WaveEngine(const topo::AsGraph& graph, bgp::PolicyMode mode,
                       util::ThreadPool* pool)
    : graph_(&graph),
      pool_(pool != nullptr && pool->jobs() > 1 ? pool : nullptr),
      cycle_cap_(graph.node_count() + 16),
      lanes_(pool_ ? pool_->jobs() : 1) {
  nodes_.reserve(graph.node_count());
  index_.reserve(graph.node_count());
  // The rank levels as node indices.
  const topo::RankAssignment ranks = topo::rank_by_customer_cone(graph);
  std::vector<std::vector<std::uint32_t>> levels;
  for (const auto& level : ranks.levels) {
    auto& indices = levels.emplace_back();
    indices.reserve(level.size());
    for (bgp::Asn asn : level) {
      const auto self = static_cast<std::uint32_t>(nodes_.size());
      indices.push_back(self);
      index_.emplace(asn, self);
      Node& node = nodes_.emplace_back();
      node.router = std::make_unique<bgp::Router>(
          asn, mode,
          [this, self](bgp::Asn to, std::uint32_t slot, bgp::Update update) {
            enqueue(self, to, slot, std::move(update));
          },
          /*clock=*/nullptr);
      // Route-age preference is meaningless without arrival times; the
      // deterministic lowest-neighbor-ASN tie-break decides equal-key
      // contests instead (see the header).
      node.router->set_prefer_established(false);
    }
  }
  slots_.reserve(graph.edge_count() * 2);
  // One persistent slot per direction, filed under the *receiver's*
  // relationship view of the sender. The sender's router learns the
  // slot's index in its own `out` table, which it hands back on each send.
  const auto wire = [this](std::uint32_t sender, std::uint32_t receiver,
                           bgp::Relationship rel_of_receiver) {
    Node& from = nodes_[sender];
    Node& to = nodes_[receiver];
    Slot* slot = slots_.emplace_back(std::make_unique<Slot>()).get();
    slot->from = from.router->asn();
    slot->owner = receiver;
    slot->bucket_index = static_cast<std::uint8_t>(bgp::reverse(rel_of_receiver));
    to.bucket[slot->bucket_index].push_back(slot);
    from.router->add_peer(to.router->asn(), rel_of_receiver,
                          static_cast<std::uint32_t>(from.out.size()));
    from.out.emplace_back(to.router->asn(), slot);
  };
  for (const auto& edge : graph.edges()) {
    const std::uint32_t a = index_.at(edge.a);
    const std::uint32_t b = index_.at(edge.b);
    wire(a, b, edge.rel_of_b);
    wire(b, a, bgp::reverse(edge.rel_of_b));
  }
  // Sender-ascending drain order within a bucket (the bit-identical
  // across---jobs contract); edges() order is not that order.
  for (Node& node : nodes_) {
    for (auto& bucket : node.bucket) {
      std::sort(bucket.begin(), bucket.end(),
                [](const Slot* x, const Slot* y) { return x->from < y->from; });
    }
  }
  for (std::size_t bucket = 0; bucket < 3; ++bucket) {
    groups_[bucket] = build_groups(levels, bucket, /*dependency=*/pool_ != nullptr);
  }
}

std::vector<std::vector<std::uint32_t>> WaveEngine::build_groups(
    std::vector<std::vector<std::uint32_t>> levels, std::size_t bucket_index,
    bool dependency) const {
  // The serial sweep order: levels ascending, or descending for the down
  // sweep (providers before the customers they feed).
  if (bucket_index == static_cast<std::size_t>(bgp::Relationship::Provider)) {
    std::reverse(levels.begin(), levels.end());
  }
  if (!dependency) return levels;

  // A node's depth is one more than the deepest bucket neighbour ahead of
  // it in the serial order. Its senders in this bucket are all of those:
  // the receivers of its own exports into this bucket come after it
  // (providers rank above in the up sweep, customers below in the down
  // sweep), and peer edges file both ends under Peer.
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  std::vector<std::uint32_t> depth(nodes_.size(), kUnvisited);
  std::vector<std::vector<std::uint32_t>> groups;
  for (const auto& level : levels) {
    for (std::uint32_t i : level) {
      std::uint32_t d = 0;
      for (const Slot* slot : nodes_[i].bucket[bucket_index]) {
        const std::uint32_t ahead = depth[index_.at(slot->from)];
        if (ahead != kUnvisited) d = std::max(d, ahead + 1);
      }
      depth[i] = d;
      if (groups.size() <= d) groups.resize(d + 1);
      groups[d].push_back(i);
    }
  }
  return groups;
}

std::vector<std::vector<bgp::Asn>> WaveEngine::sweep_groups(bgp::Relationship from_rel) const {
  std::vector<std::vector<bgp::Asn>> out;
  for (const auto& group : groups_[static_cast<std::size_t>(from_rel)]) {
    auto& asns = out.emplace_back();
    asns.reserve(group.size());
    for (std::uint32_t i : group) asns.push_back(nodes_[i].router->asn());
  }
  return out;
}

bgp::Router& WaveEngine::router(bgp::Asn asn) {
  auto it = index_.find(asn);
  MOAS_REQUIRE(it != index_.end(), "unknown router " + std::to_string(asn));
  return *nodes_[it->second].router;
}

const bgp::Router& WaveEngine::router(bgp::Asn asn) const {
  auto it = index_.find(asn);
  MOAS_REQUIRE(it != index_.end(), "unknown router " + std::to_string(asn));
  return *nodes_[it->second].router;
}

void WaveEngine::enqueue(std::uint32_t sender, bgp::Asn to, std::uint32_t out,
                         bgp::Update update) {
  // End-of-RIB only exists on the graceful-restart path, which needs a
  // clock and therefore cannot run here.
  MOAS_ENSURE(update.kind != bgp::Update::Kind::EndOfRib,
              "the wave engine carries no End-of-RIB markers");
  const Node& node = nodes_[sender];
  Lane& lane = lanes_[node.lane];
  // The router hands back the index the engine registered for the peering.
  MOAS_ENSURE(out < node.out.size() && node.out[out].first == to,
              "update sent to a peer the engine never wired");
  Slot& slot = *node.out[out].second;
  // Tiny linear scan: a slot rarely holds more than a handful of prefixes
  // between sweeps, and this path runs once per message sent.
  for (auto& [prefix, queued] : slot.entries) {
    if (prefix == update.prefix) {
      // A newer update for the same (sender, receiver, prefix) supersedes
      // the queued one — only the final state matters to the fixpoint.
      queued = std::move(update);
      ++lane.collapsed;
      return;
    }
  }
  if (slot.entries.empty()) {
    std::atomic_ref(nodes_[slot.owner].dirty[slot.bucket_index])
        .fetch_add(1, std::memory_order_relaxed);
  }
  slot.entries.emplace_back(update.prefix, std::move(update));
  ++lane.pending;
}

void WaveEngine::deliver(Node& node, std::size_t bucket_index, Lane& lane) {
  // Two-stage delivery: ingest every sender batch into the Adj-RIB-In
  // first (sender order, then prefix order — deterministic), then run the
  // decision process once per touched prefix. The fixpoint is the same as
  // per-update handle_update() — the decision is a pure function of RIB
  // state — but a router with several senders of the same prefix exports
  // once instead of cascading a transient per sender, which is most of the
  // in-flight traffic a sweep would otherwise collapse downstream.
  std::vector<net::Prefix>& dirty_prefixes = lane.dirty_prefixes;
  dirty_prefixes.clear();
  // A slot draining here can only refill through our own router's exports,
  // which target *other* nodes — and no sender of this bucket drains
  // concurrently with us — so the dirty count is ours alone for the scan
  // and we can stop as soon as we have drained them all (a core node has
  // hundreds of slots per bucket; late sweeps touch one or two).
  std::uint32_t remaining = node.dirty[bucket_index];
  for (Slot* slot : node.bucket[bucket_index]) {
    if (slot->entries.empty()) continue;
    // Swap the batch out before delivering: import re-exports nothing, but
    // validator purges (invalidate_origins) may re-decide and re-export —
    // into *other* nodes' slots; keeping the iteration independent is cheap
    // and obviously safe. The swap circulates capacity instead of freeing.
    std::swap(slot->entries, lane.scratch);
    std::sort(lane.scratch.begin(), lane.scratch.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    lane.pending -= static_cast<std::int64_t>(lane.scratch.size());
    lane.deliveries += lane.scratch.size();
    --node.dirty[bucket_index];
    for (auto& [prefix, update] : lane.scratch) {
      if (node.router->import_update(slot->from, std::move(update))) {
        dirty_prefixes.push_back(prefix);
      }
    }
    lane.scratch.clear();
    if (--remaining == 0) break;
  }
  std::sort(dirty_prefixes.begin(), dirty_prefixes.end());
  dirty_prefixes.erase(std::unique(dirty_prefixes.begin(), dirty_prefixes.end()),
                       dirty_prefixes.end());
  for (const net::Prefix& prefix : dirty_prefixes) node.router->decide_prefix(prefix);
}

void WaveEngine::sweep(bgp::Relationship from_rel) {
  const auto bucket = static_cast<std::size_t>(from_rel);
  for (const auto& group : groups_[bucket]) {
    if (pool_) {
      drain_group(group, bucket);
      continue;
    }
    // Serial level order: a node may dirty a later node of its own level
    // (two peers of one rank), so test each node as its turn comes.
    for (std::uint32_t i : group) {
      if (nodes_[i].dirty[bucket] > 0) deliver(nodes_[i], bucket, lanes_[0]);
    }
  }
}

void WaveEngine::drain_group(const std::vector<std::uint32_t>& group,
                             std::size_t bucket_index) {
  // No node of a group feeds another's drain, so the dirty set is fixed at
  // the group's start and the drains may run in any order.
  ready_.clear();
  for (std::uint32_t i : group) {
    if (nodes_[i].dirty[bucket_index] > 0) ready_.push_back(i);
  }
  if (ready_.size() <= 1) {
    for (std::uint32_t i : ready_) {
      nodes_[i].lane = 0;
      deliver(nodes_[i], bucket_index, lanes_[0]);
    }
    return;
  }
  // Small dynamic chunks: a core node's drain costs hundreds of stubs'.
  const std::size_t chunk =
      std::clamp<std::size_t>(ready_.size() / (lanes_.size() * 8), 1, 64);
  const std::size_t tasks = std::min(lanes_.size(), (ready_.size() + chunk - 1) / chunk);
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(tasks, [&](std::size_t lane) {
    for (std::size_t begin;
         (begin = next.fetch_add(chunk, std::memory_order_relaxed)) < ready_.size();) {
      const std::size_t end = std::min(begin + chunk, ready_.size());
      for (std::size_t k = begin; k < end; ++k) {
        Node& node = nodes_[ready_[k]];
        node.lane = static_cast<std::uint32_t>(lane);
        deliver(node, bucket_index, lanes_[lane]);
      }
    }
  });
}

std::size_t WaveEngine::pending() const {
  std::int64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.pending;
  return static_cast<std::size_t>(total);
}

std::uint64_t WaveEngine::deliveries() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.deliveries;
  return total;
}

std::uint64_t WaveEngine::collapsed() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.collapsed;
  return total;
}

void WaveEngine::propagate() {
  // The cap bounds one call: a run that propagates block by block may run
  // many more cycles in total than any single fixpoint needs.
  for (std::size_t this_call = 0; pending() > 0; ++this_call) {
    MOAS_ENSURE(this_call < cycle_cap_,
                "wave propagation failed to converge within the cycle cap — "
                "the policy mode admits a persistent oscillation?");
    ++cycles_;
    sweep(bgp::Relationship::Customer);  // up
    sweep(bgp::Relationship::Peer);      // across
    sweep(bgp::Relationship::Provider);  // down
  }
}

void WaveEngine::collect_metrics(obs::MetricsRegistry& registry) const {
  for (const Node& node : nodes_) node.router->collect_metrics(registry);
  registry.count("network.messages_sent", deliveries());
  registry.count("network.messages_dropped", 0);
  registry.set_gauge("network.routers", static_cast<double>(nodes_.size()));
  registry.set_gauge("network.links", static_cast<double>(graph_->edge_count()));
  registry.count("sim.events_executed", 0);
  registry.count("wave.cycles", cycles_);
  registry.count("wave.updates_collapsed", collapsed());
}

}  // namespace moas::sim
