#include "moas/core/moas_list.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "moas/bgp/intern.h"
#include "moas/bgp/intern_pool.h"
#include "moas/util/assert.h"

namespace moas::core {

namespace {

/// A pooled MOAS list, in the shape bgp::intern::Pool expects.
struct ListData {
  AsnSet values;
  std::uint32_t id = 0;
};

/// One canonical AsnSet per distinct list. Its own Pool instance, so
/// bgp::intern::pool_stats() never counts it.
bgp::intern::Pool<ListData, AsnSet>& list_pool() {
  static bgp::intern::Pool<ListData, AsnSet> pool;
  return pool;
}

/// moas_list_of's memo key: the two interned community handles.
struct MemoKey {
  const bgp::intern::CommunitySetData* communities;
  const bgp::intern::LargeCommunitySetData* large;

  friend bool operator==(const MemoKey&, const MemoKey&) = default;
};

struct MemoHash {
  std::size_t operator()(const MemoKey& key) const noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(key.communities);
    const auto b = reinterpret_cast<std::uintptr_t>(key.large);
    return static_cast<std::size_t>((a ^ (b * 0x9e3779b97f4a7c15ull)) >> 3);
  }
};

struct Memo {
  std::unordered_map<MemoKey, MoasList, MemoHash> lists;
  /// The bgp::intern::arena_generation() the entries were made under.
  std::uint64_t generation = 0;
};

}  // namespace

MoasList MoasList::of(std::span<const Asn> members) {
  if (members.empty()) return {};
  return MoasList(&list_pool().intern_view(members)->values);
}

MoasList MoasList::of(const AsnSet& members) {
  return of(std::span<const Asn>(members.begin(), members.end()));
}

const AsnSet& MoasList::set() const {
  static const AsnSet empty;
  return set_ ? *set_ : empty;
}

bool MoasList::equals(std::span<const Asn> members) const {
  return set_ ? std::ranges::equal(*set_, members) : members.empty();
}

MoasList moas_list_of(const bgp::PathAttributes& attrs) {
  const MemoKey key{attrs.communities.interned(), attrs.large_communities.interned()};
  if (key.communities == nullptr && key.large == nullptr) return {};
  // Per thread, so no worker waits on another to read it. The keys are
  // handle addresses, valid as long as their arena: the memo forgets every
  // entry once an arena of this thread has died, since a later arena may
  // hand the same addresses to other sets.
  thread_local Memo memo;
  if (const std::uint64_t generation = bgp::intern::arena_generation();
      generation != memo.generation) {
    memo.lists.clear();
    memo.generation = generation;
  }
  if (const auto it = memo.lists.find(key); it != memo.lists.end()) return it->second;
  const MoasList list = MoasList::of(decode_moas_list(attrs));
  memo.lists.emplace(key, list);
  return list;
}

bool is_moas_community(bgp::Community c) { return c.value() == kMoasListValue; }

bgp::Community moas_community(Asn asn) {
  MOAS_REQUIRE(asn <= 0xffffu, "MOAS community encoding needs a 2-octet ASN");
  MOAS_REQUIRE(asn != bgp::kNoAs, "MOAS list member must be a real ASN");
  return bgp::Community(static_cast<std::uint16_t>(asn), kMoasListValue);
}

bgp::CommunitySet encode_moas_list(const AsnSet& origins) {
  bgp::CommunitySet out;
  for (Asn asn : origins) out.add(moas_community(asn));
  return out;
}

bool is_moas_large_community(const bgp::LargeCommunity& c) {
  return c.data1() == kMoasListValue && c.data2() == 0;
}

bgp::LargeCommunity moas_large_community(Asn asn) {
  MOAS_REQUIRE(asn != bgp::kNoAs, "MOAS list member must be a real ASN");
  return bgp::LargeCommunity(asn, kMoasListValue, 0);
}

AsnSet decode_moas_list(const bgp::CommunitySet& communities) {
  AsnSet out;
  for (bgp::Community c : communities.values()) {
    if (is_moas_community(c)) out.insert(c.asn());
  }
  return out;
}

AsnSet decode_moas_list(const bgp::PathAttributes& attrs) {
  AsnSet out = decode_moas_list(attrs.communities);
  for (const bgp::LargeCommunity& c : attrs.large_communities.values()) {
    if (is_moas_large_community(c)) out.insert(c.global_admin());
  }
  return out;
}

void attach_moas_list(bgp::PathAttributes& attrs, const AsnSet& origins) {
  // Replace stale members in both attributes before splitting the new list
  // by width — otherwise a member that changed width would survive in the
  // attribute it no longer belongs to.
  std::vector<bgp::Community> stale;
  for (bgp::Community c : attrs.communities.values()) {
    if (is_moas_community(c)) stale.push_back(c);
  }
  for (bgp::Community c : stale) attrs.communities.remove(c);
  std::vector<bgp::LargeCommunity> stale_large;
  for (const bgp::LargeCommunity& c : attrs.large_communities.values()) {
    if (is_moas_large_community(c)) stale_large.push_back(c);
  }
  for (const bgp::LargeCommunity& c : stale_large) attrs.large_communities.remove(c);
  for (Asn asn : origins) {
    if (asn <= 0xffffu) {
      attrs.communities.add(moas_community(asn));
    } else {
      attrs.large_communities.add(moas_large_community(asn));
    }
  }
}

AsnSet effective_moas_list(const bgp::Route& route) {
  AsnSet explicit_list = decode_moas_list(route.attrs);
  if (!explicit_list.empty()) return explicit_list;
  return route.origin_candidates();
}

bool has_explicit_moas_list(const bgp::Route& route) {
  return !decode_moas_list(route.attrs).empty();
}

bool lists_consistent(const AsnSet& a, const AsnSet& b) { return a == b; }

std::string list_to_string(const AsnSet& list) {
  std::string out = "{";
  bool first = true;
  for (Asn asn : list) {
    if (!first) out += ", ";
    out += std::to_string(asn);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace moas::core
