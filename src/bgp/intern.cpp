#include "moas/bgp/intern.h"

#include <algorithm>
#include <type_traits>
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

namespace {

// A set hash's per-element-type inputs: the seed, and how one member mixes in.
template <typename T>
constexpr std::size_t kSetSeed = 0;
template <>
constexpr std::size_t kSetSeed<Community> = 0x434f4d4d;  // "COMM"
template <>
constexpr std::size_t kSetSeed<LargeCommunity> = 0x4c434f4d;  // "LCOM"

std::size_t mix(std::size_t h, Community c) { return intern::mix(h, c.raw()); }
std::size_t mix(std::size_t h, const LargeCommunity& c) {
  return intern::mix(intern::mix(intern::mix(h, c.global_admin()), c.data1()), c.data2());
}

}  // namespace

template <typename T>
std::size_t hash_payload(const std::vector<T>& values) {
  std::size_t h = kSetSeed<T>;
  for (const T& value : values) h = mix(h, value);
  return h;
}

template std::size_t hash_payload(const std::vector<Community>&);
template std::size_t hash_payload(const std::vector<LargeCommunity>&);

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

template <typename T>
using SetPool = Pool<SetData<T>, std::vector<T>>;

/// One arena: the three pools every handle interns into.
struct Arena {
  Pool<PathData, std::vector<PathSegment>> paths;
  SetPool<Community> communities;
  SetPool<LargeCommunity> large_communities;

  /// The pool of sets of T.
  template <typename T>
  SetPool<T>& sets() {
    if constexpr (std::is_same_v<T, Community>) {
      return communities;
    } else {
      return large_communities;
    }
  }
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
template <typename T>
const SetData<T>* intern_set(SetPool<T>& pool, std::vector<T> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.empty()) return nullptr;
  return pool.intern(std::move(values), [](SetData<T>&) {});
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

template <typename T>
const SetData<T>* make_set(std::vector<T> values) {
  return intern_set(current_arena().sets<T>(), std::move(values));
}

template <typename T>
Set<T> to_process_arena(const Set<T>& set) {
  return Set<T>(intern_set(process_arena().sets<T>(), set.values()));
}

template <typename T>
const std::vector<T>& empty_values() {
  static const std::vector<T> empty;
  return empty;
}

template const CommunitySetData* make_set(std::vector<Community>);
template const LargeCommunitySetData* make_set(std::vector<LargeCommunity>);
template CommunitySet to_process_arena(const CommunitySet&);
template LargeCommunitySet to_process_arena(const LargeCommunitySet&);
template const std::vector<Community>& empty_values();
template const std::vector<LargeCommunity>& empty_values();

PoolStats pool_stats() {
  const Arena& arena = current_arena();
  PoolStats out;
  out.paths = arena.paths.usage();
  out.community_sets = arena.communities.usage();
  out.large_community_sets = arena.large_communities.usage();
  return out;
}

}  // namespace moas::bgp::intern
