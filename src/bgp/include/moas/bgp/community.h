// BGP COMMUNITIES attribute (RFC 1997) and LARGE COMMUNITIES (RFC 8092).
//
// A community is a 4-octet value, conventionally written AS:value with the
// AS number in the high two octets. The MOAS-list mechanism (the paper's
// Section 4.2) reserves one value of the low two octets, MLVal, so that the
// community X:MLVal means "AS X may originate this prefix". The classic
// attribute only has a 2-octet AS field; members with 4-octet ASNs (RFC
// 6793) ride a large community <asn:MLVal:0> instead — see core/moas_list.h.
//
// CommunitySet / LargeCommunitySet are handles onto interned sorted vectors
// in the current intern arena (see intern.h / as_path.h for the
// representation rationale): a MOAS list is carried by every copy of the
// route in every Adj-RIB-In, so structural sharing is what keeps
// multi-prefix RIBs small.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "moas/bgp/asn.h"

namespace moas::bgp {

/// One community value.
class Community {
 public:
  constexpr Community() = default;
  constexpr explicit Community(std::uint32_t raw) : raw_(raw) {}
  constexpr Community(std::uint16_t asn, std::uint16_t value)
      : raw_((std::uint32_t{asn} << 16) | value) {}

  constexpr std::uint32_t raw() const { return raw_; }
  constexpr std::uint16_t asn() const { return static_cast<std::uint16_t>(raw_ >> 16); }
  constexpr std::uint16_t value() const { return static_cast<std::uint16_t>(raw_ & 0xffffu); }

  /// "AS:value".
  std::string to_string() const;

  /// Parse "AS:value" (both decimal, both <= 65535).
  static std::optional<Community> parse(std::string_view s);

  friend constexpr auto operator<=>(Community, Community) = default;

 private:
  std::uint32_t raw_ = 0;
};

/// RFC 1997 well-known communities.
inline constexpr Community kNoExport{0xffffff01u};
inline constexpr Community kNoAdvertise{0xffffff02u};
inline constexpr Community kNoExportSubconfed{0xffffff03u};

/// One RFC 8092 large community: 12 octets, <global_admin:data1:data2>,
/// where global_admin is a full 4-octet ASN.
class LargeCommunity {
 public:
  constexpr LargeCommunity() = default;
  constexpr LargeCommunity(std::uint32_t global_admin, std::uint32_t data1, std::uint32_t data2)
      : global_admin_(global_admin), data1_(data1), data2_(data2) {}

  constexpr std::uint32_t global_admin() const { return global_admin_; }
  constexpr std::uint32_t data1() const { return data1_; }
  constexpr std::uint32_t data2() const { return data2_; }

  /// "admin:data1:data2".
  std::string to_string() const;

  /// Parse "admin:data1:data2" (all decimal, all <= 2^32-1).
  static std::optional<LargeCommunity> parse(std::string_view s);

  friend constexpr auto operator<=>(const LargeCommunity&, const LargeCommunity&) = default;

 private:
  std::uint32_t global_admin_ = 0;
  std::uint32_t data1_ = 0;
  std::uint32_t data2_ = 0;
};

class CommunitySet;
class LargeCommunitySet;

namespace intern {

/// One interned community set: the canonical sorted duplicate-free value
/// vector. See as_path.h / PathData for the arena contract.
struct CommunitySetData {
  std::vector<Community> values;
  std::uint32_t id = 0;
};

struct LargeCommunitySetData {
  std::vector<LargeCommunity> values;
  std::uint32_t id = 0;
};

/// Canonical handle for `values` (sorted + deduplicated internally) in the
/// calling thread's current arena; nullptr for the empty set. Thread-safe;
/// pointers live as long as that arena (the process arena outside a run).
const CommunitySetData* make_community_set(std::vector<Community> values);
const LargeCommunitySetData* make_large_community_set(std::vector<LargeCommunity> values);

/// `set` with its values interned into the process arena, for a handle that
/// must outlive the run arena that interned it.
CommunitySet to_process_arena(const CommunitySet& set);
LargeCommunitySet to_process_arena(const LargeCommunitySet& set);

const std::vector<Community>& empty_communities();
const std::vector<LargeCommunity>& empty_large_communities();

}  // namespace intern

/// An (order-irrelevant, duplicate-free) set of communities, as carried on a
/// route announcement.
class CommunitySet {
 public:
  CommunitySet() = default;
  CommunitySet(std::initializer_list<Community> cs);

  void add(Community c);
  void remove(Community c);
  bool contains(Community c) const;
  bool empty() const { return data_ == nullptr; }
  std::size_t size() const { return data_ ? data_->values.size() : 0; }
  void clear() { data_ = nullptr; }

  /// Members in ascending raw order.
  const std::vector<Community>& values() const {
    return data_ ? data_->values : intern::empty_communities();
  }

  /// Diagnostics/tests only (see AsPath::intern_id).
  std::uint32_t intern_id() const { return data_ ? data_->id : 0; }

  /// The interned data (nullptr for the empty set): an identity for memo
  /// keys, stable for the life of its arena.
  const intern::CommunitySetData* interned() const { return data_; }

  /// "AS:val AS:val ..." in ascending raw order.
  std::string to_string() const;

  friend bool operator==(const CommunitySet& a, const CommunitySet& b) {
    return a.data_ == b.data_;
  }
  friend std::strong_ordering operator<=>(const CommunitySet& a, const CommunitySet& b) {
    if (a.data_ == b.data_) return std::strong_ordering::equal;
    return a.values() <=> b.values();
  }

 private:
  friend CommunitySet intern::to_process_arena(const CommunitySet& set);
  explicit CommunitySet(const intern::CommunitySetData* data) : data_(data) {}

  const intern::CommunitySetData* data_ = nullptr;
};

/// An (order-irrelevant, duplicate-free) set of large communities.
class LargeCommunitySet {
 public:
  LargeCommunitySet() = default;
  LargeCommunitySet(std::initializer_list<LargeCommunity> cs);

  void add(LargeCommunity c);
  void remove(LargeCommunity c);
  bool contains(LargeCommunity c) const;
  bool empty() const { return data_ == nullptr; }
  std::size_t size() const { return data_ ? data_->values.size() : 0; }
  void clear() { data_ = nullptr; }

  /// Members in ascending (admin, data1, data2) order.
  const std::vector<LargeCommunity>& values() const {
    return data_ ? data_->values : intern::empty_large_communities();
  }

  std::uint32_t intern_id() const { return data_ ? data_->id : 0; }

  const intern::LargeCommunitySetData* interned() const { return data_; }

  /// "a:b:c a:b:c ..." in ascending order.
  std::string to_string() const;

  friend bool operator==(const LargeCommunitySet& a, const LargeCommunitySet& b) {
    return a.data_ == b.data_;
  }
  friend std::strong_ordering operator<=>(const LargeCommunitySet& a,
                                          const LargeCommunitySet& b) {
    if (a.data_ == b.data_) return std::strong_ordering::equal;
    return a.values() <=> b.values();
  }

 private:
  friend LargeCommunitySet intern::to_process_arena(const LargeCommunitySet& set);
  explicit LargeCommunitySet(const intern::LargeCommunitySetData* data) : data_(data) {}

  const intern::LargeCommunitySetData* data_ = nullptr;
};

}  // namespace moas::bgp
