// Routing information bases and the BGP decision process.
//
// Storage is compact (DESIGN.md §13): per prefix, the candidates live in one
// sorted small vector instead of a node-based map-of-maps, and a per-peer
// prefix index makes session-scoped operations (mark_peer_stale, erase_peer)
// proportional to the peer's routes instead of the whole table. Iteration
// orders are identical to the std::map layout this replaces — prefix
// ascending, peer ascending — so every output stays byte-identical.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "moas/bgp/route.h"
#include "moas/net/prefix.h"
#include "moas/util/flat_map.h"

namespace moas::bgp {

/// A route candidate along with the peer it was learned from
/// (learned_from == self for locally originated routes).
struct RibEntry {
  Route route;
  Asn learned_from = kNoAs;

  friend auto operator<=>(const RibEntry&, const RibEntry&) = default;
};

/// Compares only the attribute key of the decision process: higher
/// LOCAL_PREF, then shorter AS path, then lower ORIGIN code, then lower MED.
/// Returns <0 if a is preferred, >0 if b is preferred, 0 if equally good.
int compare_candidate_keys(const RibEntry& a, const RibEntry& b);

/// Full decision-process comparison: compare_candidate_keys, then lowest
/// neighbor ASN as the deterministic tie-break. Returns 0 only for
/// equally-keyed candidates from the same neighbor.
int compare_candidates(const RibEntry& a, const RibEntry& b);

/// Picks the best candidate, or nullptr if `candidates` is empty.
const RibEntry* select_best(const std::vector<const RibEntry*>& candidates);

/// Adj-RIB-In: per prefix, the latest route from each peer.
///
/// Pointers returned by candidates()/from_peer() are valid until the next
/// mutation of the table (vector-backed rows; the old map layout only
/// promised stability per row, and no caller held entries across writes).
class AdjRibIn {
 public:
  /// Install/replace the route from `peer`. Returns true if this changed
  /// the stored entry.
  bool set(Asn peer, Route route);

  /// Drop the route for `prefix` from `peer`; true if one existed.
  bool erase(Asn peer, const net::Prefix& prefix);

  /// All candidates for a prefix (may be empty), peer-ascending.
  std::vector<const RibEntry*> candidates(const net::Prefix& prefix) const;
  /// The same into `out` (cleared first), so a hot caller can reuse one
  /// buffer instead of allocating per call.
  void candidates(const net::Prefix& prefix, std::vector<const RibEntry*>& out) const;

  /// The entry from a specific peer, or nullptr.
  const RibEntry* from_peer(const net::Prefix& prefix, Asn peer) const;

  /// Erase every candidate for `prefix` whose origin candidates intersect
  /// `origins`; returns the number erased.
  std::size_t erase_by_origin(const net::Prefix& prefix, const AsnSet& origins);

  /// Drop everything learned from `peer` (session reset); returns the
  /// affected prefixes in ascending order. O(routes held from peer), via
  /// the per-peer index.
  std::vector<net::Prefix> erase_peer(Asn peer);

  /// Prefixes with at least one candidate.
  std::vector<net::Prefix> prefixes() const;

  std::size_t size() const;

  /// Heap bytes of the table containers themselves (rows, index, stale
  /// bookkeeping) — excludes the interned attribute data the entries
  /// share (intern::pool_stats() accounts for that once per arena).
  std::size_t container_bytes() const;

  // --- graceful restart (RFC 4724) stale-route tracking ---------------------
  //
  // Staleness is bookkeeping *about* entries, kept outside RibEntry: the
  // decision process and the duplicate-suppression equality of set() must
  // treat a retained stale route exactly like a fresh one ("the Staleness
  // state ... MUST NOT be used in the route selection").

  /// Mark everything currently held from `peer` stale (the peer announced a
  /// restart). Returns how many entries were marked. O(routes held from
  /// peer) — served from the per-peer index, not a table scan.
  std::size_t mark_peer_stale(Asn peer);

  /// True if the entry for (prefix, peer) exists and is marked stale.
  bool is_stale(const net::Prefix& prefix, Asn peer) const;

  /// Erase every still-stale entry from `peer` (restart timer expired, or
  /// End-of-RIB arrived and the peer did not re-announce them). Returns the
  /// affected prefixes. Entries refreshed by set() since the marking are
  /// not touched.
  std::vector<net::Prefix> sweep_stale(Asn peer);

  /// Every stale (prefix, peer) pair across all peers — the invariant
  /// checker's stale-route-hygiene audit walks this.
  std::vector<std::pair<net::Prefix, Asn>> stale_entries() const;

  /// Total stale entries.
  std::size_t stale_count() const;

 private:
  /// Candidates for one prefix, sorted by learned_from (what the nested
  /// std::map<Asn, RibEntry> used to give us, in one allocation).
  using Row = std::vector<RibEntry>;

  void clear_stale(Asn peer, const net::Prefix& prefix);
  void index_erase(Asn peer, const net::Prefix& prefix);
  static Row::iterator row_find(Row& row, Asn peer);
  static Row::const_iterator row_find(const Row& row, Asn peer);

  util::FlatMap<net::Prefix, Row> table_;
  /// Per-peer view: which prefixes hold an entry from this peer. Maintained
  /// by every row mutation; keeps erase_peer / mark_peer_stale linear in
  /// the peer's own routes.
  util::FlatMap<Asn, util::FlatSet<net::Prefix>> by_peer_;
  util::FlatMap<Asn, util::FlatSet<net::Prefix>> stale_;
};

/// Loc-RIB: the selected best route per prefix.
///
/// best() pointers are valid until a mutation for a *different* prefix
/// (set() on an existing prefix assigns in place).
class LocRib {
 public:
  void set(const net::Prefix& prefix, RibEntry entry);
  bool erase(const net::Prefix& prefix);
  const RibEntry* best(const net::Prefix& prefix) const;
  std::vector<net::Prefix> prefixes() const;
  std::size_t size() const { return table_.size(); }

  /// Heap bytes of the table container (see AdjRibIn::container_bytes).
  std::size_t container_bytes() const { return table_.container_bytes(); }

 private:
  util::FlatMap<net::Prefix, RibEntry> table_;
};

}  // namespace moas::bgp
