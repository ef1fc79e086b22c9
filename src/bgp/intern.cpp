#include "moas/bgp/intern.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <utility>

namespace moas::bgp::intern {

namespace {

constexpr std::size_t kShardBits = 4;
constexpr std::size_t kShardCount = 1u << kShardBits;

std::size_t mix(std::size_t h, std::size_t v) {
  // Boost-style combine with a splitmix-ish odd constant.
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::size_t hash_payload(const std::vector<PathSegment>& segments) {
  std::size_t h = 0x50415448;  // "PATH"
  for (const PathSegment& seg : segments) {
    h = mix(h, static_cast<std::size_t>(seg.kind));
    h = mix(h, seg.asns.size());
    for (Asn asn : seg.asns) h = mix(h, asn);
  }
  return h;
}

std::size_t hash_payload(const std::vector<Community>& values) {
  std::size_t h = 0x434f4d4d;  // "COMM"
  for (Community c : values) h = mix(h, c.raw());
  return h;
}

std::size_t hash_payload(const std::vector<LargeCommunity>& values) {
  std::size_t h = 0x4c434f4d;  // "LCOM"
  for (const LargeCommunity& c : values) {
    h = mix(h, c.global_admin());
    h = mix(h, c.data1());
    h = mix(h, c.data2());
  }
  return h;
}

std::size_t deep_bytes(const std::vector<PathSegment>& segments) {
  std::size_t bytes = segments.capacity() * sizeof(PathSegment);
  for (const PathSegment& seg : segments) bytes += seg.asns.capacity() * sizeof(Asn);
  return bytes;
}

template <typename T>
std::size_t deep_bytes(const std::vector<T>& values) {
  return values.capacity() * sizeof(T);
}

void shrink(std::vector<PathSegment>& segments) {
  for (PathSegment& seg : segments) seg.asns.shrink_to_fit();
  segments.shrink_to_fit();
}

template <typename T>
void shrink(std::vector<T>& values) {
  values.shrink_to_fit();
}

/// One sharded hash-consing pool. `Data` must expose a `.values`-style
/// payload vector named by the accessor below via `payload_of`.
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
  struct Hash {
    std::size_t operator()(const Key& key) const noexcept { return key.hash; }
  };
  struct Eq {
    bool operator()(const Key& a, const Key& b) const {
      return a.hash == b.hash && payload_of(*a.data) == payload_of(*b.data);
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::deque<Data> arena;  // stable addresses for the life of the process
    std::unordered_set<Key, Hash, Eq> index;
    std::size_t payload_bytes = 0;
  };

  Shard shards_[kShardCount];
};

// Meyers singletons: constructed on first intern, destroyed at static
// teardown in reverse construction order (so they outlive anything built
// after program start; handles held by other statics of earlier
// construction would be the only hazard, and none exist).
Pool<PathData, std::vector<PathSegment>>& path_pool() {
  static Pool<PathData, std::vector<PathSegment>> pool;
  return pool;
}

Pool<CommunitySetData, std::vector<Community>>& community_pool() {
  static Pool<CommunitySetData, std::vector<Community>> pool;
  return pool;
}

Pool<LargeCommunitySetData, std::vector<LargeCommunity>>& large_community_pool() {
  static Pool<LargeCommunitySetData, std::vector<LargeCommunity>> pool;
  return pool;
}

std::uint32_t path_selection_length(const std::vector<PathSegment>& segments) {
  std::size_t n = 0;
  for (const PathSegment& seg : segments) {
    n += seg.kind == PathSegment::Kind::Sequence ? seg.asns.size() : 1;
  }
  return static_cast<std::uint32_t>(n);
}

}  // namespace

const PathData* make_path(std::vector<PathSegment> segments) {
  if (segments.empty()) return nullptr;
  return path_pool().intern(std::move(segments), [](PathData& entry) {
    entry.selection_length = path_selection_length(entry.segments);
  });
}

const std::vector<PathSegment>& empty_path_segments() {
  static const std::vector<PathSegment> empty;
  return empty;
}

const CommunitySetData* make_community_set(std::vector<Community> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.empty()) return nullptr;
  return community_pool().intern(std::move(values), [](CommunitySetData&) {});
}

const LargeCommunitySetData* make_large_community_set(std::vector<LargeCommunity> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.empty()) return nullptr;
  return large_community_pool().intern(std::move(values), [](LargeCommunitySetData&) {});
}

const std::vector<Community>& empty_communities() {
  static const std::vector<Community> empty;
  return empty;
}

const std::vector<LargeCommunity>& empty_large_communities() {
  static const std::vector<LargeCommunity> empty;
  return empty;
}

PoolStats pool_stats() {
  PoolStats out;
  out.paths = path_pool().usage();
  out.community_sets = community_pool().usage();
  out.large_community_sets = large_community_pool().usage();
  return out;
}

}  // namespace moas::bgp::intern
