#include "moas/bgp/rib.h"

#include <algorithm>

#include "moas/util/assert.h"

namespace moas::bgp {

int compare_candidate_keys(const RibEntry& a, const RibEntry& b) {
  if (a.route.attrs.local_pref != b.route.attrs.local_pref) {
    return a.route.attrs.local_pref > b.route.attrs.local_pref ? -1 : 1;
  }
  // selection_length() is O(1): the interner caches it on the shared path
  // data, so the decision process no longer re-walks segments per comparison.
  const auto alen = a.route.attrs.path.selection_length();
  const auto blen = b.route.attrs.path.selection_length();
  if (alen != blen) return alen < blen ? -1 : 1;
  if (a.route.attrs.origin_code != b.route.attrs.origin_code) {
    return a.route.attrs.origin_code < b.route.attrs.origin_code ? -1 : 1;
  }
  if (a.route.attrs.med != b.route.attrs.med) {
    return a.route.attrs.med < b.route.attrs.med ? -1 : 1;
  }
  return 0;
}

int compare_candidates(const RibEntry& a, const RibEntry& b) {
  const int keys = compare_candidate_keys(a, b);
  if (keys != 0) return keys;
  if (a.learned_from != b.learned_from) return a.learned_from < b.learned_from ? -1 : 1;
  return 0;
}

const RibEntry* select_best(const std::vector<const RibEntry*>& candidates) {
  const RibEntry* best = nullptr;
  for (const RibEntry* c : candidates) {
    if (!best || compare_candidates(*c, *best) < 0) best = c;
  }
  return best;
}

namespace {

struct PeerLess {
  bool operator()(const RibEntry& entry, Asn peer) const { return entry.learned_from < peer; }
};

}  // namespace

AdjRibIn::Row::iterator AdjRibIn::row_find(Row& row, Asn peer) {
  auto it = std::lower_bound(row.begin(), row.end(), peer, PeerLess{});
  return (it != row.end() && it->learned_from == peer) ? it : row.end();
}

AdjRibIn::Row::const_iterator AdjRibIn::row_find(const Row& row, Asn peer) {
  auto it = std::lower_bound(row.begin(), row.end(), peer, PeerLess{});
  return (it != row.end() && it->learned_from == peer) ? it : row.end();
}

bool AdjRibIn::set(Asn peer, Route route) {
  const net::Prefix prefix = route.prefix;
  Row& row = table_[prefix];
  // Any announcement refreshes the entry: even a byte-identical replay
  // clears the graceful-restart stale mark (RFC 4724: the replayed route
  // replaces the stale one).
  clear_stale(peer, prefix);
  auto it = std::lower_bound(row.begin(), row.end(), peer, PeerLess{});
  if (it == row.end() || it->learned_from != peer) {
    row.insert(it, RibEntry{std::move(route), peer});
    by_peer_[peer].insert(prefix);
    return true;
  }
  if (it->route == route) return false;  // learned_from is already `peer`
  it->route = std::move(route);
  return true;
}

bool AdjRibIn::erase(Asn peer, const net::Prefix& prefix) {
  auto it = table_.find(prefix);
  if (it == table_.end()) return false;
  auto jt = row_find(it->second, peer);
  if (jt == it->second.end()) return false;
  it->second.erase(jt);
  clear_stale(peer, prefix);
  index_erase(peer, prefix);
  if (it->second.empty()) table_.erase(it);
  return true;
}

std::vector<const RibEntry*> AdjRibIn::candidates(const net::Prefix& prefix) const {
  std::vector<const RibEntry*> out;
  candidates(prefix, out);
  return out;
}

void AdjRibIn::candidates(const net::Prefix& prefix, std::vector<const RibEntry*>& out) const {
  out.clear();
  auto it = table_.find(prefix);
  if (it == table_.end()) return;
  out.reserve(it->second.size());
  for (const RibEntry& entry : it->second) out.push_back(&entry);
}

const RibEntry* AdjRibIn::from_peer(const net::Prefix& prefix, Asn peer) const {
  auto it = table_.find(prefix);
  if (it == table_.end()) return nullptr;
  auto jt = row_find(it->second, peer);
  return jt == it->second.end() ? nullptr : &*jt;
}

std::size_t AdjRibIn::erase_by_origin(const net::Prefix& prefix, const AsnSet& origins) {
  auto it = table_.find(prefix);
  if (it == table_.end()) return 0;
  std::size_t erased = 0;
  Row& row = it->second;
  for (auto jt = row.begin(); jt != row.end();) {
    const auto cand = jt->route.attrs.path.origin_view();
    const bool hit = std::any_of(cand.begin(), cand.end(),
                                 [&](Asn a) { return origins.contains(a); });
    if (hit) {
      clear_stale(jt->learned_from, prefix);
      index_erase(jt->learned_from, prefix);
      jt = row.erase(jt);
      ++erased;
    } else {
      ++jt;
    }
  }
  if (row.empty()) table_.erase(it);
  return erased;
}

std::vector<net::Prefix> AdjRibIn::erase_peer(Asn peer) {
  std::vector<net::Prefix> affected;
  auto idx = by_peer_.find(peer);
  if (idx == by_peer_.end()) {
    stale_.erase(peer);
    return affected;
  }
  affected.reserve(idx->second.size());
  // The index is sorted, so `affected` comes out prefix-ascending — same
  // order the old full-table scan produced.
  for (const net::Prefix& prefix : idx->second) {
    auto it = table_.find(prefix);
    if (it == table_.end()) continue;
    auto jt = row_find(it->second, peer);
    if (jt == it->second.end()) continue;
    it->second.erase(jt);
    if (it->second.empty()) table_.erase(it);
    affected.push_back(prefix);
  }
  by_peer_.erase(peer);
  stale_.erase(peer);
  return affected;
}

std::size_t AdjRibIn::mark_peer_stale(Asn peer) {
  auto idx = by_peer_.find(peer);
  if (idx == by_peer_.end()) {
    stale_.erase(peer);
    return 0;
  }
  // stale_[peer] ⊆ by_peer_[peer] holds (every row erase clears the mark),
  // so assigning the whole held set equals the old merge-into-marks scan.
  stale_.insert_or_assign(peer, idx->second);
  return idx->second.size();
}

bool AdjRibIn::is_stale(const net::Prefix& prefix, Asn peer) const {
  auto it = stale_.find(peer);
  return it != stale_.end() && it->second.contains(prefix);
}

std::vector<net::Prefix> AdjRibIn::sweep_stale(Asn peer) {
  std::vector<net::Prefix> affected;
  auto it = stale_.find(peer);
  if (it == stale_.end()) return affected;
  for (const net::Prefix& prefix : it->second) {
    auto row = table_.find(prefix);
    if (row == table_.end()) continue;
    auto jt = row_find(row->second, peer);
    if (jt == row->second.end()) continue;
    row->second.erase(jt);
    if (row->second.empty()) table_.erase(row);
    index_erase(peer, prefix);
    affected.push_back(prefix);
  }
  stale_.erase(it);
  return affected;
}

std::vector<std::pair<net::Prefix, Asn>> AdjRibIn::stale_entries() const {
  std::vector<std::pair<net::Prefix, Asn>> out;
  for (const auto& [peer, prefixes] : stale_) {
    for (const net::Prefix& prefix : prefixes) out.emplace_back(prefix, peer);
  }
  return out;
}

std::size_t AdjRibIn::stale_count() const {
  std::size_t n = 0;
  for (const auto& [_, prefixes] : stale_) n += prefixes.size();
  return n;
}

void AdjRibIn::clear_stale(Asn peer, const net::Prefix& prefix) {
  auto it = stale_.find(peer);
  if (it == stale_.end()) return;
  it->second.erase(prefix);
  if (it->second.empty()) stale_.erase(it);
}

void AdjRibIn::index_erase(Asn peer, const net::Prefix& prefix) {
  auto it = by_peer_.find(peer);
  if (it == by_peer_.end()) return;
  it->second.erase(prefix);
  if (it->second.empty()) by_peer_.erase(it);
}

std::vector<net::Prefix> AdjRibIn::prefixes() const {
  std::vector<net::Prefix> out;
  out.reserve(table_.size());
  for (const auto& [prefix, _] : table_) out.push_back(prefix);
  return out;
}

std::size_t AdjRibIn::size() const {
  std::size_t n = 0;
  for (const auto& [_, row] : table_) n += row.size();
  return n;
}

std::size_t AdjRibIn::container_bytes() const {
  std::size_t n = table_.container_bytes();
  for (const auto& [_, row] : table_) n += row.capacity() * sizeof(RibEntry);
  n += by_peer_.container_bytes();
  for (const auto& [_, s] : by_peer_) n += s.container_bytes();
  n += stale_.container_bytes();
  for (const auto& [_, s] : stale_) n += s.container_bytes();
  return n;
}

void LocRib::set(const net::Prefix& prefix, RibEntry entry) {
  MOAS_REQUIRE(entry.route.prefix == prefix, "loc-rib entry prefix mismatch");
  table_.insert_or_assign(prefix, std::move(entry));
}

bool LocRib::erase(const net::Prefix& prefix) { return table_.erase(prefix) > 0; }

const RibEntry* LocRib::best(const net::Prefix& prefix) const {
  auto it = table_.find(prefix);
  return it == table_.end() ? nullptr : &it->second;
}

std::vector<net::Prefix> LocRib::prefixes() const {
  std::vector<net::Prefix> out;
  out.reserve(table_.size());
  for (const auto& [prefix, _] : table_) out.push_back(prefix);
  return out;
}

}  // namespace moas::bgp
