// Per-AS prefix assignment for the simulated RouteViews-style topologies:
// every AS originates one deterministic /20 so scenarios and benches can
// name "the prefix of AS n" without a lookup table.
#pragma once

#include "moas/bgp/asn.h"
#include "moas/net/prefix.h"

namespace moas::topo {

/// Deterministic prefix for an AS: a /20 carved out of 10.0.0.0/8 by ASN.
/// The /8 holds 4,096 such /20s, so ASNs congruent modulo 4,096 share a
/// prefix; callers that need distinct prefixes keep ASNs below 4,096 or
/// assign their own.
net::Prefix prefix_for_asn(bgp::Asn asn);

}  // namespace moas::topo
