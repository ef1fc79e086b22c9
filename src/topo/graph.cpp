#include "moas/topo/graph.h"

#include <deque>
#include <string>
#include <unordered_set>

#include "moas/util/assert.h"

namespace moas::topo {

const char* to_string(AsKind kind) { return kind == AsKind::Stub ? "stub" : "transit"; }

void AsGraph::add_node(Asn asn, AsKind kind) {
  MOAS_REQUIRE(asn != bgp::kNoAs, "node needs a real ASN");
  nodes_[asn].kind = kind;
}

void AsGraph::add_edge(Asn a, Asn b, bgp::Relationship rel_of_b) {
  MOAS_REQUIRE(a != b, "no self-loops");
  const auto ia = nodes_.find(a);
  const auto ib = nodes_.find(b);
  MOAS_REQUIRE(ia != nodes_.end() && ib != nodes_.end(), "both endpoints must exist");
  // Rows live in their own vectors, so editing one leaves ia/ib valid.
  if (ia->second.row.insert_or_assign(b, rel_of_b).second) ++edge_count_;
  ib->second.row.insert_or_assign(a, bgp::reverse(rel_of_b));
}

bool AsGraph::remove_node(Asn asn) {
  const auto it = nodes_.find(asn);
  if (it == nodes_.end()) return false;
  for (const auto& [nbr, _] : it->second.row) nodes_.find(nbr)->second.row.erase(asn);
  edge_count_ -= it->second.row.size();
  nodes_.erase(it);
  return true;
}

const AsGraph::Node& AsGraph::node(Asn asn) const {
  const auto it = nodes_.find(asn);
  MOAS_REQUIRE(it != nodes_.end(), "unknown node " + std::to_string(asn));
  return it->second;
}

std::optional<bgp::Relationship> AsGraph::relationship(Asn a, Asn b) const {
  const auto it = nodes_.find(a);
  if (it == nodes_.end()) return std::nullopt;
  const auto jt = it->second.row.find(b);
  if (jt == it->second.row.end()) return std::nullopt;
  return jt->second;
}

std::span<const AsGraph::Neighbor> AsGraph::neighbors(Asn asn) const {
  const auto& row = node(asn).row;
  return {row.begin(), row.end()};
}

std::vector<Asn> AsGraph::nodes() const {
  std::vector<Asn> out;
  out.reserve(nodes_.size());
  for (const auto& [asn, _] : nodes_) out.push_back(asn);
  return out;
}

std::vector<Asn> AsGraph::nodes_of_kind(AsKind kind) const {
  std::vector<Asn> out;
  for (const auto& [asn, node] : nodes_) {
    if (node.kind == kind) out.push_back(asn);
  }
  return out;
}

std::vector<AsGraph::Edge> AsGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (const auto& [a, node] : nodes_) {
    for (const auto& [b, rel] : node.row) {
      if (a < b) out.push_back(Edge{a, b, rel});
    }
  }
  return out;
}

bool AsGraph::is_connected() const {
  if (nodes_.empty()) return true;
  return reachable_from(nodes_.begin()->first).size() == nodes_.size();
}

AsnSet AsGraph::reachable_from(Asn start, const AsnSet& blocked) const {
  MOAS_REQUIRE(has_node(start), "unknown start node");
  MOAS_REQUIRE(!blocked.contains(start), "start node must not be blocked");
  std::unordered_set<Asn> seen{start};  // grows to graph size: hashed, not flat; sorted on return
  std::deque<Asn> frontier{start};
  while (!frontier.empty()) {
    const Asn cur = frontier.front();
    frontier.pop_front();
    for (const auto& [nbr, _] : node(cur).row) {
      if (blocked.contains(nbr) || !seen.insert(nbr).second) continue;
      frontier.push_back(nbr);
    }
  }
  return AsnSet(seen.begin(), seen.end());
}

AsGraph AsGraph::largest_component() const {
  // Components in order of their smallest node; the first largest wins.
  std::unordered_set<Asn> assigned;  // grows to graph size: hashed, not flat
  AsnSet best;
  for (const auto& [asn, _] : nodes_) {
    if (assigned.contains(asn)) continue;
    AsnSet comp = reachable_from(asn);
    assigned.insert(comp.begin(), comp.end());
    if (comp.size() > best.size()) best = std::move(comp);
  }
  return induced(best);
}

AsGraph AsGraph::induced(const AsnSet& keep) const {
  // `keep` is ascending, so nodes and rows are appended in order.
  AsGraph out;
  for (Asn asn : keep) {
    if (const auto it = nodes_.find(asn); it != nodes_.end()) out.add_node(asn, it->second.kind);
  }
  for (Asn asn : keep) {
    const auto it = nodes_.find(asn);
    if (it == nodes_.end()) continue;
    for (const auto& [nbr, rel] : it->second.row) {
      if (asn < nbr && keep.contains(nbr)) out.add_edge(asn, nbr, rel);
    }
  }
  return out;
}

}  // namespace moas::topo
