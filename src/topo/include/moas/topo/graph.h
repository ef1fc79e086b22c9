// AS-level topology graph.
//
// Nodes are ASes annotated as transit (an ISP that appears mid-path) or stub
// (an edge network); edges are BGP peering connections annotated with the
// business relationship, which the Gao–Rexford policy mode consumes.
//
// Storage is one sorted node table; each node carries its kind and a sorted
// row of (neighbour, relationship) pairs, so every iteration (nodes, stubs,
// neighbours, edges) is ASN-ascending. The generator and `induced` add
// nodes in ascending order and append nearly every neighbour at the end of
// its row, so building shifts almost nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/bgp/policy.h"
#include "moas/util/flat_map.h"

namespace moas::topo {

using bgp::Asn;
using bgp::AsnSet;

enum class AsKind : std::uint8_t { Stub, Transit };

const char* to_string(AsKind kind);

class AsGraph {
 public:
  /// One adjacency entry: a neighbour and its relationship as seen from the
  /// row's owner (Customer: the neighbour is the owner's customer).
  using Neighbor = std::pair<Asn, bgp::Relationship>;

  /// Add a node; re-adding an existing node updates its kind.
  void add_node(Asn asn, AsKind kind);

  /// Add an undirected peering edge. `rel_of_b` is b's relationship as seen
  /// from a (Customer: b is a's customer). Requires both endpoints present;
  /// re-adding overwrites the relationship.
  void add_edge(Asn a, Asn b, bgp::Relationship rel_of_b = bgp::Relationship::Peer);

  /// Remove a node and all incident edges. Returns true if it existed.
  bool remove_node(Asn asn);

  bool has_node(Asn asn) const { return nodes_.contains(asn); }
  bool has_edge(Asn a, Asn b) const { return relationship(a, b).has_value(); }

  AsKind kind(Asn asn) const { return node(asn).kind; }
  bool is_stub(Asn asn) const { return kind(asn) == AsKind::Stub; }
  bool is_transit(Asn asn) const { return kind(asn) == AsKind::Transit; }

  /// Relationship of `b` as seen from `a`; nullopt if no such edge.
  std::optional<bgp::Relationship> relationship(Asn a, Asn b) const;

  /// `asn`'s adjacency row, ascending by neighbour. A view into the graph:
  /// valid until the graph is next modified or destroyed.
  std::span<const Neighbor> neighbors(Asn asn) const;
  std::size_t degree(Asn asn) const { return node(asn).row.size(); }

  std::vector<Asn> nodes() const;
  std::vector<Asn> stubs() const { return nodes_of_kind(AsKind::Stub); }
  std::vector<Asn> transits() const { return nodes_of_kind(AsKind::Transit); }

  /// All edges once each, as (a, b, rel_of_b) with a < b.
  struct Edge {
    Asn a;
    Asn b;
    bgp::Relationship rel_of_b;
  };
  std::vector<Edge> edges() const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// True if every node can reach every other (empty graph counts as
  /// connected).
  bool is_connected() const;

  /// Nodes reachable from `start` (including it), optionally treating the
  /// nodes in `blocked` as removed. `start` itself must not be blocked.
  AsnSet reachable_from(Asn start, const AsnSet& blocked = {}) const;

  /// The largest connected component as a new graph (annotations kept).
  AsGraph largest_component() const;

  /// Subgraph induced by `keep` (edges between kept nodes survive).
  AsGraph induced(const AsnSet& keep) const;

 private:
  struct Node {
    AsKind kind = AsKind::Stub;
    util::FlatMap<Asn, bgp::Relationship> row;
  };

  const Node& node(Asn asn) const;
  std::vector<Asn> nodes_of_kind(AsKind kind) const;

  util::FlatMap<Asn, Node> nodes_;
  std::size_t edge_count_ = 0;
};

}  // namespace moas::topo
