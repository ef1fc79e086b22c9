// The MOAS list (the paper's Section 4.1/4.2).
//
// A MOAS list is the set of ASes entitled to originate a prefix. It is
// carried in the standard BGP community attribute: the community X:MLVal
// asserts "AS X may originate this prefix". Consistency between two lists is
// plain set equality — order and duplication never matter.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "moas/bgp/community.h"
#include "moas/bgp/route.h"

namespace moas::core {

using bgp::Asn;
using bgp::AsnSet;

/// MLVal: the reserved low-half community value that tags a MOAS-list
/// member. The draft reserves one of the 2^16 values; we pick 0xff9a
/// ("MOAS" on a phone pad, 6627 decimal — the paper's 4/6/2001 case count).
inline constexpr std::uint16_t kMoasListValue = 0xff9a;

/// True if `c` is a MOAS-list member community.
bool is_moas_community(bgp::Community c);

/// The community encoding of one list member. Requires asn <= 0xffff (the
/// classic attribute has a 2-octet AS field); wider members ride a large
/// community instead — see moas_large_community.
bgp::Community moas_community(Asn asn);

/// True if `c` is a MOAS-list member large community (<asn:MLVal:0>).
bool is_moas_large_community(const bgp::LargeCommunity& c);

/// The RFC 8092 encoding of one list member: <asn:MLVal:0>, valid for the
/// full 4-octet ASN range.
bgp::LargeCommunity moas_large_community(Asn asn);

/// Encode a full MOAS list into classic communities. Requires every member
/// <= 0xffff; mixed-width lists go through attach_moas_list.
bgp::CommunitySet encode_moas_list(const AsnSet& origins);

/// Extract the MOAS list carried on a community set (empty if none).
AsnSet decode_moas_list(const bgp::CommunitySet& communities);

/// The full MOAS list of a route's attributes: classic members unioned with
/// large-community members.
AsnSet decode_moas_list(const bgp::PathAttributes& attrs);

/// Merge a MOAS list into a route's attributes, splitting it by width:
/// members that fit 2 octets go to the classic attribute, wider ones to
/// large communities. Stale MOAS members are replaced in BOTH attributes,
/// other communities stay untouched.
void attach_moas_list(bgp::PathAttributes& attrs, const AsnSet& origins);

/// The list a checker must use for a route (the paper's footnote 3):
/// the explicit list if the route carries one, otherwise the implicit
/// {origin candidates} of the AS path.
AsnSet effective_moas_list(const bgp::Route& route);

/// True if the route carries an explicit MOAS list.
bool has_explicit_moas_list(const bgp::Route& route);

/// A canonical MOAS list: a handle onto one immutable AsnSet in a
/// process-wide pool that holds each distinct list once, so two handles
/// are equal exactly when their lists are, and the set-equality test below
/// becomes a pointer compare. The default handle is the empty list.
///
/// The pool is one more bgp::intern::Pool (intern_pool.h: hashed by
/// content, sharded, one mutex per shard). It is process-wide, not part of
/// any intern arena: entries are never freed, so a handle stays valid for
/// the life of the process, across run arenas. pool_stats() does not
/// read it (DESIGN.md §13), and a holder's byte accounting counts the
/// handle, not the shared list.
class MoasList {
 public:
  MoasList() = default;

  /// The canonical handle for `members`, which must be ascending and
  /// duplicate-free (an AsnSet, or AsPath::origin_view()). Takes one
  /// shard's lock; the per-route path goes through moas_list_of instead.
  static MoasList of(std::span<const Asn> members);
  static MoasList of(const AsnSet& members);

  bool empty() const { return set_ == nullptr; }
  /// The members (the shared empty set for the empty list).
  const AsnSet& set() const;
  /// Content equality with an ascending, duplicate-free view.
  bool equals(std::span<const Asn> members) const;

  friend bool operator==(MoasList a, MoasList b) { return a.set_ == b.set_; }

 private:
  explicit MoasList(const AsnSet* set) : set_(set) {}

  const AsnSet* set_ = nullptr;
};

/// decode_moas_list(attrs) as a canonical handle. Each distinct
/// (community set, large-community set) pair is decoded once per thread
/// and memoized by the two interned handles, so a repeat costs one hash
/// probe of a thread-local table: no allocation, no shared lock. The keys
/// live only as long as their intern arena, so the memo is dropped when
/// an arena of the thread dies (bgp::intern::arena_generation).
MoasList moas_list_of(const bgp::PathAttributes& attrs);

/// Set equality — "the order in the list may differ, but the set of ASes
/// included in each route announcement must be identical".
bool lists_consistent(const AsnSet& a, const AsnSet& b);

/// "{1, 2, 3}" for diagnostics.
std::string list_to_string(const AsnSet& list);

}  // namespace moas::core
