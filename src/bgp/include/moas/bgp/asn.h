// Autonomous System numbers.
#pragma once

#include <cstdint>

#include "moas/util/flat_map.h"

namespace moas::bgp {

/// AS number. The paper predates 4-octet ASNs, but nothing in the mechanism
/// depends on width: the wire layer speaks RFC 6793 (AS_TRANS stand-ins
/// plus AS4_PATH) and wide MOAS-list members ride RFC 8092
/// large communities, so the full 32-bit range is usable end to end.
using Asn = std::uint32_t;

/// A set of ASNs (origin sets, MOAS lists, attacker sets, ...), kept as one
/// sorted vector: these sets hold a handful of members, so iteration in
/// ascending order costs no heap node per member. Sets that grow one
/// member at a time to graph size (the topo BFS visited sets) are hashed
/// instead, because each sorted insert would shift the whole vector.
using AsnSet = util::FlatSet<Asn>;

/// Reserved value meaning "no AS" (0 is unallocated in the real registry).
inline constexpr Asn kNoAs = 0;

/// AS_TRANS (RFC 6793 §9): the 2-octet stand-in a 4-octet ASN travels as in
/// 2-octet wire fields (the AS_PATH hops of an UPDATE).
inline constexpr Asn kAsTrans = 23456;

/// Private-use ASN range (RFC 1930 era): used by the ASE multi-homing model.
inline constexpr Asn kPrivateAsnFirst = 64512;
inline constexpr Asn kPrivateAsnLast = 65535;

inline bool is_private_asn(Asn asn) {
  return asn >= kPrivateAsnFirst && asn <= kPrivateAsnLast;
}

}  // namespace moas::bgp
