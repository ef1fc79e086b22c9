#include "moas/topo/graph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "moas/util/assert.h"

namespace moas::topo {

const char* to_string(AsKind kind) { return kind == AsKind::Stub ? "stub" : "transit"; }

void AsGraph::add_node(Asn asn, AsKind kind) {
  MOAS_REQUIRE(asn != bgp::kNoAs, "node needs a real ASN");
  kind_[asn] = kind;
  adj_.try_emplace(asn);
}

void AsGraph::add_edge(Asn a, Asn b, bgp::Relationship rel_of_b) {
  MOAS_REQUIRE(a != b, "no self-loops");
  MOAS_REQUIRE(has_node(a) && has_node(b), "both endpoints must exist");
  adj_[a][b] = rel_of_b;
  adj_[b][a] = bgp::reverse(rel_of_b);
}

bool AsGraph::remove_node(Asn asn) {
  auto it = adj_.find(asn);
  if (it == adj_.end()) return false;
  for (const auto& [nbr, _] : it->second) adj_[nbr].erase(asn);
  adj_.erase(it);
  kind_.erase(asn);
  return true;
}

bool AsGraph::remove_edge(Asn a, Asn b) {
  auto it = adj_.find(a);
  if (it == adj_.end() || it->second.erase(b) == 0) return false;
  adj_[b].erase(a);
  return true;
}

bool AsGraph::has_edge(Asn a, Asn b) const {
  auto it = adj_.find(a);
  return it != adj_.end() && it->second.contains(b);
}

AsKind AsGraph::kind(Asn asn) const {
  auto it = kind_.find(asn);
  MOAS_REQUIRE(it != kind_.end(), "unknown node " + std::to_string(asn));
  return it->second;
}

std::optional<bgp::Relationship> AsGraph::relationship(Asn a, Asn b) const {
  auto it = adj_.find(a);
  if (it == adj_.end()) return std::nullopt;
  auto jt = it->second.find(b);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::vector<Asn> AsGraph::neighbors(Asn asn) const {
  auto it = adj_.find(asn);
  MOAS_REQUIRE(it != adj_.end(), "unknown node " + std::to_string(asn));
  std::vector<Asn> out;
  out.reserve(it->second.size());
  for (const auto& [nbr, _] : it->second) out.push_back(nbr);
  return out;
}

std::size_t AsGraph::degree(Asn asn) const {
  auto it = adj_.find(asn);
  MOAS_REQUIRE(it != adj_.end(), "unknown node " + std::to_string(asn));
  return it->second.size();
}

std::vector<Asn> AsGraph::nodes() const {
  std::vector<Asn> out;
  out.reserve(adj_.size());
  for (const auto& [asn, _] : adj_) out.push_back(asn);
  return out;
}

std::vector<Asn> AsGraph::stubs() const {
  std::vector<Asn> out;
  for (const auto& [asn, kind] : kind_) {
    if (kind == AsKind::Stub) out.push_back(asn);
  }
  return out;
}

std::vector<Asn> AsGraph::transits() const {
  std::vector<Asn> out;
  for (const auto& [asn, kind] : kind_) {
    if (kind == AsKind::Transit) out.push_back(asn);
  }
  return out;
}

std::vector<AsGraph::Edge> AsGraph::edges() const {
  std::vector<Edge> out;
  for (const auto& [a, nbrs] : adj_) {
    for (const auto& [b, rel] : nbrs) {
      if (a < b) out.push_back(Edge{a, b, rel});
    }
  }
  return out;
}

std::size_t AsGraph::edge_count() const {
  std::size_t twice = 0;
  for (const auto& [_, nbrs] : adj_) twice += nbrs.size();
  return twice / 2;
}

bool AsGraph::is_connected() const {
  if (adj_.empty()) return true;
  const AsnSet seen = reachable_from(adj_.begin()->first);
  return seen.size() == adj_.size();
}

AsnSet AsGraph::reachable_from(Asn start, const AsnSet& blocked) const {
  MOAS_REQUIRE(has_node(start), "unknown start node");
  MOAS_REQUIRE(!blocked.contains(start), "start node must not be blocked");
  std::unordered_set<Asn> seen{start};  // grows to graph size: hashed, not flat; sorted on return
  std::deque<Asn> frontier{start};
  while (!frontier.empty()) {
    const Asn cur = frontier.front();
    frontier.pop_front();
    for (const auto& [nbr, _] : adj_.at(cur)) {
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
  for (const auto& [asn, _] : adj_) {
    if (assigned.contains(asn)) continue;
    AsnSet comp = reachable_from(asn);
    assigned.insert(comp.begin(), comp.end());
    if (comp.size() > best.size()) best = std::move(comp);
  }
  return induced(best);
}

AsGraph AsGraph::induced(const AsnSet& keep) const {
  AsGraph out;
  for (Asn asn : keep) {
    if (has_node(asn)) out.add_node(asn, kind(asn));
  }
  for (Asn asn : keep) {
    auto it = adj_.find(asn);
    if (it == adj_.end()) continue;
    for (const auto& [nbr, rel] : it->second) {
      if (asn < nbr && keep.contains(nbr)) out.add_edge(asn, nbr, rel);
    }
  }
  return out;
}

}  // namespace moas::topo
