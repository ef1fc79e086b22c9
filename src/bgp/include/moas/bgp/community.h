// BGP COMMUNITIES attribute (RFC 1997) and LARGE COMMUNITIES (RFC 8092).
//
// A community is a 4-octet value, conventionally written AS:value with the
// AS number in the high two octets. The MOAS-list mechanism (the paper's
// Section 4.2) reserves one value of the low two octets, MLVal, so that the
// community X:MLVal means "AS X may originate this prefix". The classic
// attribute only has a 2-octet AS field; members with 4-octet ASNs (RFC
// 6793) ride a large community <asn:MLVal:0> instead — see core/moas_list.h.
//
// Both attributes are sets, and both are one handle type: intern::Set<T>
// is a handle onto an interned sorted vector of T in the current intern
// arena (see intern.h / as_path.h for the representation rationale), and
// CommunitySet / LargeCommunitySet are its two instantiations. A MOAS list
// is carried by every copy of the route in every Adj-RIB-In, so structural
// sharing is what keeps multi-prefix RIBs small.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
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

  friend constexpr auto operator<=>(const LargeCommunity&, const LargeCommunity&) = default;

 private:
  std::uint32_t global_admin_ = 0;
  std::uint32_t data1_ = 0;
  std::uint32_t data2_ = 0;
};

namespace intern {

template <typename T>
class Set;

/// One interned set: the canonical sorted duplicate-free value vector. See
/// as_path.h / PathData for the arena contract.
template <typename T>
struct SetData {
  std::vector<T> values;
  std::uint32_t id = 0;
};

using CommunitySetData = SetData<Community>;
using LargeCommunitySetData = SetData<LargeCommunity>;

/// Canonical handle for `values` (sorted + deduplicated internally) in the
/// calling thread's current arena; nullptr for the empty set. Thread-safe;
/// pointers live as long as that arena (the process arena outside a run).
template <typename T>
const SetData<T>* make_set(std::vector<T> values);

/// `set` with its values interned into the process arena, for a handle that
/// must outlive the run arena that interned it.
template <typename T>
Set<T> to_process_arena(const Set<T>& set);

/// The shared empty value vector (what Set<T>::values() returns for the
/// empty set).
template <typename T>
const std::vector<T>& empty_values();

/// An (order-irrelevant, duplicate-free) set of T, as carried on a route
/// announcement. Instantiated for Community and LargeCommunity only
/// (community.cpp); the pools of an arena are per element type.
template <typename T>
class Set {
 public:
  Set() = default;
  Set(std::initializer_list<T> values);

  /// Each re-interns the new value once, unless it changes nothing.
  void add(T value);
  void remove(T value);
  bool contains(T value) const;
  bool empty() const { return data_ == nullptr; }
  std::size_t size() const { return data_ ? data_->values.size() : 0; }
  void clear() { data_ = nullptr; }

  /// Members in ascending order (raw value for a community; admin, data1,
  /// data2 for a large community).
  const std::vector<T>& values() const { return data_ ? data_->values : empty_values<T>(); }

  /// Diagnostics/tests only (see AsPath::intern_id).
  std::uint32_t intern_id() const { return data_ ? data_->id : 0; }

  /// The interned data (nullptr for the empty set): an identity for memo
  /// keys, stable for the life of its arena.
  const SetData<T>* interned() const { return data_; }

  /// The members' to_string forms, space-separated, in ascending order.
  std::string to_string() const;

  friend bool operator==(const Set& a, const Set& b) { return a.data_ == b.data_; }
  friend std::strong_ordering operator<=>(const Set& a, const Set& b) {
    if (a.data_ == b.data_) return std::strong_ordering::equal;
    return a.values() <=> b.values();
  }

 private:
  friend Set to_process_arena<T>(const Set& set);
  explicit Set(const SetData<T>* data) : data_(data) {}

  const SetData<T>* data_ = nullptr;
};

extern template class Set<Community>;
extern template class Set<LargeCommunity>;

}  // namespace intern

using CommunitySet = intern::Set<Community>;
using LargeCommunitySet = intern::Set<LargeCommunity>;

}  // namespace moas::bgp
