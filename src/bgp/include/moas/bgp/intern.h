// Interning arenas for AS paths and community sets.
//
// The memory wall at 10k–100k-AS x multi-prefix scale is attribute
// duplication: a converged topology holds only O(edges) distinct AS paths
// and a handful of distinct MOAS lists, yet every Adj-RIB-In entry of every
// router used to own a private heap copy. An arena keeps one canonical
// copy of each distinct value in pools with stable addresses; AsPath and
// Set<T> (declared next to their value types in as_path.h / community.h;
// CommunitySet and LargeCommunitySet are Set<Community> and
// Set<LargeCommunity>) are single-pointer handles onto it.
//
// Contracts:
//   - Arenas: an arena holds three pools (paths, community sets, large
//     community sets). The process arena lives as long as the process. A
//     ScopedArena installs a fresh arena as the calling thread's current
//     arena until it goes out of scope; Experiment::run_with holds one per
//     run, so a run's values live in small pools freed with the run.
//     make_path / make_set intern into the current arena: the process
//     arena outside any scope.
//   - Stable addresses: interned data is never moved or freed while its
//     arena lives; a handle stays valid for the life of the arena that
//     interned it (the process arena outside a run). A handle that must
//     outlive its run is re-interned with to_process_arena.
//   - Canonical: within one arena, equal contents always yield the same
//     pointer, so handle equality is pointer equality. Handles from two
//     arenas must be compared by content (<=>), or moved into one arena
//     first. Ordering comparisons fall back to value comparison and are
//     bit-identical to the pre-intern defaulted orderings — nothing
//     observable depends on addresses or insert order.
//   - Thread-safe: pools are sharded by content hash, one mutex per shard.
//     Interning is the only synchronization point; reads through handles
//     are lock-free (the data is immutable). A scoped arena is current only
//     on the thread that installed it: other threads, such as pool
//     workers, keep interning into their own current arena.
//   - Ids: each distinct value gets a stable 32-bit id within its arena.
//     Assignment order depends on thread interleaving, so ids are for
//     tests/diagnostics only and must never reach an output that is
//     compared across runs.
//
// DESIGN.md §13 documents the layout and the bytes/route accounting that
// bench/micro_rib_footprint gates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "moas/bgp/as_path.h"
#include "moas/bgp/community.h"

namespace moas::bgp::intern {

/// The three pools handles intern into (defined in intern.cpp).
struct Arena;

/// Installs a fresh, empty arena as the calling thread's current arena for
/// the scope's lifetime, and restores the previous one on exit. Every handle
/// interned in the scope dies with it. Scopes nest; each is confined to the
/// thread that made it.
class ScopedArena {
 public:
  ScopedArena();
  ~ScopedArena();
  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

 private:
  std::unique_ptr<Arena> arena_;
  Arena* previous_;
};

/// True while a ScopedArena is installed on the calling thread.
bool in_scoped_arena();

/// A per-thread count of the scoped arenas that ended on this thread. A
/// cache keyed by handle addresses clears itself when it moves: a later
/// arena may hand the same addresses to other values.
std::uint64_t arena_generation();

/// Footprint snapshot of one pool, for the micro_rib_footprint accounting.
struct PoolUsage {
  /// Distinct interned values.
  std::size_t entries = 0;
  /// Bytes owned by the canonical values: sizeof(Data) per entry plus the
  /// heap behind its vectors (capacities are shrunk to size on intern).
  std::size_t payload_bytes = 0;
  /// Estimated bytes of the dedup index (hash-set nodes + bucket array).
  std::size_t index_bytes = 0;

  std::size_t total_bytes() const { return payload_bytes + index_bytes; }
};

struct PoolStats {
  PoolUsage paths;
  PoolUsage community_sets;
  PoolUsage large_community_sets;

  std::size_t total_bytes() const {
    return paths.total_bytes() + community_sets.total_bytes() +
           large_community_sets.total_bytes();
  }
};

/// Snapshot of the current arena's pools. An arena only ever grows, so
/// successive snapshots of one arena are monotone.
PoolStats pool_stats();

}  // namespace moas::bgp::intern
