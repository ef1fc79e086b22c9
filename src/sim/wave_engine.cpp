#include "moas/sim/wave_engine.h"

#include <algorithm>
#include <utility>

#include "moas/obs/metrics.h"
#include "moas/util/assert.h"

namespace moas::sim {

WaveEngine::WaveEngine(const topo::AsGraph& graph, bgp::PolicyMode mode)
    : graph_(&graph),
      cycle_cap_(graph.node_count() + 16),
      ranks_(topo::rank_by_customer_cone(graph)) {
  nodes_.reserve(graph.node_count());
  index_.reserve(graph.node_count());
  for (const auto& level : ranks_.levels) {
    auto& indices = level_indices_.emplace_back();
    indices.reserve(level.size());
    for (bgp::Asn asn : level) {
      indices.push_back(static_cast<std::uint32_t>(nodes_.size()));
      index_.emplace(asn, static_cast<std::uint32_t>(nodes_.size()));
      Node& node = nodes_.emplace_back();
      node.rank = ranks_.rank.at(asn);
      node.router = std::make_unique<bgp::Router>(
          asn, mode,
          [this](bgp::Asn from, bgp::Asn to, bgp::Update update) {
            enqueue(from, to, std::move(update));
          },
          /*clock=*/nullptr);
      // Route-age preference is meaningless without arrival times; the
      // deterministic lowest-neighbor-ASN tie-break decides equal-key
      // contests instead (see the header).
      node.router->set_prefer_established(false);
    }
  }
  slots_.reserve(graph.edge_count() * 2);
  slot_of_.reserve(graph.edge_count() * 2);
  for (const auto& edge : graph.edges()) {
    Node& a = nodes_[index_.at(edge.a)];
    Node& b = nodes_[index_.at(edge.b)];
    a.router->add_peer(edge.b, edge.rel_of_b);
    b.router->add_peer(edge.a, bgp::reverse(edge.rel_of_b));
    // One persistent slot per direction, filed under the *receiver's*
    // relationship view of the sender.
    Slot* to_a = slots_.emplace_back(std::make_unique<Slot>()).get();
    to_a->from = edge.b;
    to_a->owner = index_.at(edge.a);
    to_a->bucket_index = static_cast<std::uint8_t>(edge.rel_of_b);
    slot_of_.emplace(edge_key(edge.b, edge.a), to_a);
    a.bucket[to_a->bucket_index].push_back(to_a);
    Slot* to_b = slots_.emplace_back(std::make_unique<Slot>()).get();
    to_b->from = edge.a;
    to_b->owner = index_.at(edge.b);
    to_b->bucket_index = static_cast<std::uint8_t>(bgp::reverse(edge.rel_of_b));
    slot_of_.emplace(edge_key(edge.a, edge.b), to_b);
    b.bucket[to_b->bucket_index].push_back(to_b);
  }
  // Sender-ascending drain order within a bucket (the bit-identical
  // across---jobs contract); edges() order is not that order.
  for (Node& node : nodes_) {
    for (auto& bucket : node.bucket) {
      std::sort(bucket.begin(), bucket.end(),
                [](const Slot* x, const Slot* y) { return x->from < y->from; });
    }
  }
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

void WaveEngine::enqueue(bgp::Asn from, bgp::Asn to, bgp::Update update) {
  // End-of-RIB only exists on the graceful-restart path, which needs a
  // clock and therefore cannot run here.
  MOAS_ENSURE(update.kind != bgp::Update::Kind::EndOfRib,
              "the wave engine carries no End-of-RIB markers");
  Slot& slot = *slot_of_.at(edge_key(from, to));
  // Tiny linear scan: a slot rarely holds more than a handful of prefixes
  // between sweeps, and this path runs once per message sent.
  for (auto& [prefix, queued] : slot.entries) {
    if (prefix == update.prefix) {
      // A newer update for the same (sender, receiver, prefix) supersedes
      // the queued one — only the final state matters to the fixpoint.
      queued = std::move(update);
      ++collapsed_;
      return;
    }
  }
  if (slot.entries.empty()) ++nodes_[slot.owner].dirty[slot.bucket_index];
  slot.entries.emplace_back(update.prefix, std::move(update));
  ++pending_;
}

void WaveEngine::deliver(Node& node, std::size_t bucket_index) {
  // Two-stage delivery: ingest every sender batch into the Adj-RIB-In
  // first (sender order, then prefix order — deterministic), then run the
  // decision process once per touched prefix. The fixpoint is the same as
  // per-update handle_update() — the decision is a pure function of RIB
  // state — but a router with several senders of the same prefix exports
  // once instead of cascading a transient per sender, which is most of the
  // in-flight traffic a sweep would otherwise collapse downstream.
  dirty_prefixes_.clear();
  // A slot draining here can only refill through our own router's exports,
  // which target *other* nodes — so the dirty count is ours alone for the
  // scan and we can stop as soon as we have drained them all (a core node
  // has hundreds of slots per bucket; late sweeps touch one or two).
  std::uint32_t remaining = node.dirty[bucket_index];
  for (Slot* slot : node.bucket[bucket_index]) {
    if (slot->entries.empty()) continue;
    // Swap the batch out before delivering: import re-exports nothing, but
    // validator purges (invalidate_origins) may re-decide and re-export —
    // into *other* nodes' slots; keeping the iteration independent is cheap
    // and obviously safe. The swap circulates capacity instead of freeing.
    std::swap(slot->entries, scratch_);
    std::sort(scratch_.begin(), scratch_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    pending_ -= scratch_.size();
    deliveries_ += scratch_.size();
    --node.dirty[bucket_index];
    for (auto& [prefix, update] : scratch_) {
      if (node.router->import_update(slot->from, std::move(update))) {
        dirty_prefixes_.push_back(prefix);
      }
    }
    scratch_.clear();
    if (--remaining == 0) break;
  }
  std::sort(dirty_prefixes_.begin(), dirty_prefixes_.end());
  dirty_prefixes_.erase(std::unique(dirty_prefixes_.begin(), dirty_prefixes_.end()),
                        dirty_prefixes_.end());
  for (const net::Prefix& prefix : dirty_prefixes_) node.router->decide_prefix(prefix);
}

void WaveEngine::sweep(bgp::Relationship from_rel, bool descending) {
  const auto bucket = static_cast<std::size_t>(from_rel);
  if (descending) {
    for (auto level = level_indices_.rbegin(); level != level_indices_.rend(); ++level) {
      for (std::uint32_t i : *level) {
        if (nodes_[i].dirty[bucket] > 0) deliver(nodes_[i], bucket);
      }
    }
  } else {
    for (const auto& level : level_indices_) {
      for (std::uint32_t i : level) {
        if (nodes_[i].dirty[bucket] > 0) deliver(nodes_[i], bucket);
      }
    }
  }
}

void WaveEngine::propagate() {
  while (pending_ > 0) {
    MOAS_ENSURE(cycles_ < cycle_cap_,
                "wave propagation failed to converge within the cycle cap — "
                "the policy mode admits a persistent oscillation?");
    ++cycles_;
    sweep(bgp::Relationship::Customer, /*descending=*/false);  // up
    sweep(bgp::Relationship::Peer, /*descending=*/false);      // across
    sweep(bgp::Relationship::Provider, /*descending=*/true);   // down
  }
}

void WaveEngine::collect_metrics(obs::MetricsRegistry& registry) const {
  for (const Node& node : nodes_) node.router->collect_metrics(registry);
  registry.count("network.messages_sent", deliveries_);
  registry.count("network.messages_dropped", 0);
  registry.set_gauge("network.routers", static_cast<double>(nodes_.size()));
  registry.set_gauge("network.links", static_cast<double>(graph_->edge_count()));
  registry.count("sim.events_executed", 0);
  registry.count("wave.cycles", cycles_);
  registry.count("wave.updates_collapsed", collapsed_);
}

}  // namespace moas::sim
