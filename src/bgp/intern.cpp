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

namespace {

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
