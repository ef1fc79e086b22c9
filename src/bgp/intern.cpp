#include "moas/bgp/intern.h"

#include <algorithm>
#include <utility>

#include "moas/bgp/intern_pool.h"

namespace moas::bgp::intern {

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

std::size_t hash_payload(std::span<const Asn> members) {
  std::size_t h = 0x4d4f4153;  // "MOAS"
  for (Asn asn : members) h = mix(h, asn);
  return h;
}

std::size_t deep_bytes(const std::vector<PathSegment>& segments) {
  std::size_t bytes = segments.capacity() * sizeof(PathSegment);
  for (const PathSegment& seg : segments) bytes += seg.asns.capacity() * sizeof(Asn);
  return bytes;
}

void shrink(std::vector<PathSegment>& segments) {
  for (PathSegment& seg : segments) seg.asns.shrink_to_fit();
  segments.shrink_to_fit();
}

/// One arena: the three pools every handle interns into.
struct Arena {
  Pool<PathData, std::vector<PathSegment>> paths;
  Pool<CommunitySetData, std::vector<Community>> communities;
  Pool<LargeCommunitySetData, std::vector<LargeCommunity>> large_communities;
};

namespace {

// Constructed on first intern, destroyed at static teardown in reverse
// construction order (so it outlives anything built after program start;
// handles held by other statics of earlier construction would be the only
// hazard, and none exist).
Arena& process_arena() {
  static Arena arena;
  return arena;
}

// The innermost ScopedArena of this thread, or null outside any scope.
thread_local Arena* t_scoped = nullptr;
thread_local std::uint64_t t_generation = 0;

Arena& current_arena() {
  Arena* scoped = t_scoped;
  return scoped ? *scoped : process_arena();
}

std::uint32_t path_selection_length(const std::vector<PathSegment>& segments) {
  std::size_t n = 0;
  for (const PathSegment& seg : segments) {
    n += seg.kind == PathSegment::Kind::Sequence ? seg.asns.size() : 1;
  }
  return static_cast<std::uint32_t>(n);
}

const PathData* intern_path(Arena& arena, std::vector<PathSegment> segments) {
  if (segments.empty()) return nullptr;
  return arena.paths.intern(std::move(segments), [](PathData& entry) {
    entry.selection_length = path_selection_length(entry.segments);
  });
}

// Sorts and dedupes `values` first: the pools hold canonical sets.
template <typename Data, typename T>
const Data* intern_set(Pool<Data, std::vector<T>>& pool, std::vector<T> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.empty()) return nullptr;
  return pool.intern(std::move(values), [](Data&) {});
}

}  // namespace

ScopedArena::ScopedArena() : arena_(std::make_unique<Arena>()), previous_(t_scoped) {
  t_scoped = arena_.get();
}

ScopedArena::~ScopedArena() {
  t_scoped = previous_;
  ++t_generation;
}

bool in_scoped_arena() { return t_scoped != nullptr; }

std::uint64_t arena_generation() { return t_generation; }

const PathData* make_path(std::vector<PathSegment> segments) {
  return intern_path(current_arena(), std::move(segments));
}

AsPath to_process_arena(const AsPath& path) {
  return AsPath(intern_path(process_arena(), path.segments()));
}

const std::vector<PathSegment>& empty_path_segments() {
  static const std::vector<PathSegment> empty;
  return empty;
}

const CommunitySetData* make_community_set(std::vector<Community> values) {
  return intern_set(current_arena().communities, std::move(values));
}

const LargeCommunitySetData* make_large_community_set(std::vector<LargeCommunity> values) {
  return intern_set(current_arena().large_communities, std::move(values));
}

CommunitySet to_process_arena(const CommunitySet& set) {
  return CommunitySet(intern_set(process_arena().communities, set.values()));
}

LargeCommunitySet to_process_arena(const LargeCommunitySet& set) {
  return LargeCommunitySet(intern_set(process_arena().large_communities, set.values()));
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
  const Arena& arena = current_arena();
  PoolStats out;
  out.paths = arena.paths.usage();
  out.community_sets = arena.communities.usage();
  out.large_community_sets = arena.large_communities.usage();
  return out;
}

}  // namespace moas::bgp::intern
