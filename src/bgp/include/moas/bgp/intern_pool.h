// The sharded hash-consing pool behind the intern handles (intern.h), for
// code that keeps a pool of its own; handle users need only intern.h.
//
// A pool holds each distinct payload once in a per-shard std::deque
// (stable addresses, freed only with the pool), indexed by a hash set keyed
// on the content hash. Shards are picked by that hash, one mutex each, so
// the hash_payload hooks below fix each value's shard: their seeds and mix
// orders are pinned by the intern tests. An intern arena is three pools (paths,
// and one per intern::Set element type), which pool_stats() sums;
// core::MoasList keeps another, process-wide instance that pool_stats()
// does not read (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "moas/bgp/intern.h"

namespace moas::bgp::intern {

/// Boost-style combine with a splitmix-ish odd constant.
inline std::size_t mix(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

// The payload hooks a Pool calls: the content hash, the heap bytes the
// payload owns, and trimming its capacity to its size before it is kept.
std::size_t hash_payload(const std::vector<PathSegment>& segments);
/// A community or large-community set: one template, seeded per element
/// type ("COMM", "LCOM"), instantiated for those two (intern.cpp).
template <typename T>
std::size_t hash_payload(const std::vector<T>& values);
/// An AsnSet, or any ascending, duplicate-free view of one.
std::size_t hash_payload(std::span<const Asn> members);

std::size_t deep_bytes(const std::vector<PathSegment>& segments);
template <typename T>
std::size_t deep_bytes(const std::vector<T>& values) {
  return values.capacity() * sizeof(T);
}
inline std::size_t deep_bytes(const AsnSet& set) { return set.container_bytes(); }

void shrink(std::vector<PathSegment>& segments);
template <typename T>
void shrink(std::vector<T>& values) {
  values.shrink_to_fit();
}
inline void shrink(AsnSet& set) { set.shrink_to_fit(); }

/// One sharded hash-consing pool. `Data` holds the payload in a member
/// named `segments` or `values`, and a 32-bit `id`.
template <typename Data, typename Payload>
class Pool {
 public:
  /// Returns the canonical entry for `payload`; `finish` fills the derived
  /// fields of a freshly arena'd entry (id is assigned here).
  template <typename Finish>
  const Data* intern(Payload payload, Finish&& finish) {
    shrink(payload);
    const std::size_t hash = hash_payload(payload);
    Shard& shard = shards_[hash & (kShardCount - 1)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // One probe under the lock: place the value in the arena, then insert;
    // a duplicate gives the arena slot back. The hash rides in the key, so
    // the index never recomputes it.
    Data& entry = shard.arena.emplace_back();
    payload_of(entry) = std::move(payload);
    const auto [it, inserted] = shard.index.insert(Key{hash, &entry});
    if (!inserted) {
      shard.arena.pop_back();
      return it->data;
    }
    entry.id = static_cast<std::uint32_t>((shard.arena.size() << kShardBits) |
                                          (hash & (kShardCount - 1)));
    finish(entry);
    shard.payload_bytes += sizeof(Data) + deep_bytes(payload_of(entry));
    return &entry;
  }

  /// intern() for a `view` that hashes and compares like the Payload it
  /// stands for: a value already pooled is found without building one.
  template <typename View>
  const Data* intern_view(const View& view) {
    const std::size_t hash = hash_payload(view);
    Shard& shard = shards_[hash & (kShardCount - 1)];
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.index.find(Probe<View>{hash, &view});
      if (it != shard.index.end()) return it->data;
    }
    // intern() settles a race with another thread adding the same value.
    return intern(Payload(view.begin(), view.end()), [](Data&) {});
  }

  PoolUsage usage() const {
    PoolUsage out;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.entries += shard.arena.size();
      out.payload_bytes += shard.payload_bytes;
      // libstdc++ unordered_set: one node (hash + pointer key + next) per
      // entry plus the bucket array. An estimate, flagged as such in the
      // PoolUsage contract.
      out.index_bytes += shard.index.size() * (sizeof(void*) * 3) +
                         shard.index.bucket_count() * sizeof(void*);
    }
    return out;
  }

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShardCount = 1u << kShardBits;

  static Payload& payload_of(Data& d) { return d.*payload_member(); }
  static const Payload& payload_of(const Data& d) { return d.*payload_member(); }
  static constexpr auto payload_member() {
    if constexpr (requires(Data d) { d.segments; }) {
      return &Data::segments;
    } else {
      return &Data::values;
    }
  }

  struct Key {
    std::size_t hash;
    const Data* data;
  };
  template <typename View>
  struct Probe {
    std::size_t hash;
    const View* view;
  };
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const Key& key) const noexcept { return key.hash; }
    template <typename View>
    std::size_t operator()(const Probe<View>& probe) const noexcept {
      return probe.hash;
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const {
      return a.hash == b.hash && payload_of(*a.data) == payload_of(*b.data);
    }
    template <typename View>
    bool operator()(const Probe<View>& probe, const Key& key) const {
      return probe.hash == key.hash && std::ranges::equal(*probe.view, payload_of(*key.data));
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::deque<Data> arena;  // stable addresses for the life of the pool
    std::unordered_set<Key, Hash, Eq> index;
    std::size_t payload_bytes = 0;
  };

  Shard shards_[kShardCount];
};

}  // namespace moas::bgp::intern
