#include "moas/topo/route_views.h"

namespace moas::topo {

net::Prefix prefix_for_asn(bgp::Asn asn) {
  // 10.0.0.0/8 sliced into /20s: 4096 host addresses per AS.
  const std::uint32_t base = 10u << 24;
  const std::uint32_t offset = (asn << 12) & 0x00ffffffu;
  return net::Prefix(net::Ipv4Addr(base | offset), 20);
}

}  // namespace moas::topo
