#include "moas/core/monitor.h"

#include <map>
#include <utility>

#include "moas/core/moas_list.h"
#include "moas/util/assert.h"

namespace moas::core {

MoasMonitor::MoasMonitor(std::vector<bgp::Asn> vantages) : vantages_(std::move(vantages)) {
  MOAS_REQUIRE(!vantages_.empty(), "monitor needs at least one vantage");
}

std::vector<MoasAlarm> MoasMonitor::scan(const bgp::Network& network) const {
  // prefix -> (first list seen, vantage that reported it)
  std::map<net::Prefix, std::pair<AsnSet, bgp::Asn>> reference;
  std::vector<MoasAlarm> out;
  std::map<net::Prefix, bool> already_alarmed;

  for (bgp::Asn vantage : vantages_) {
    const bgp::Router& router = network.router(vantage);
    for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
      const bgp::RibEntry* entry = router.loc_rib().best(prefix);
      MOAS_ENSURE(entry != nullptr, "loc-rib listed a prefix without a best route");
      const AsnSet list = effective_moas_list(entry->route);
      auto [it, fresh] = reference.try_emplace(prefix, list, vantage);
      if (fresh || lists_consistent(it->second.first, list)) continue;
      if (already_alarmed[prefix]) continue;
      already_alarmed[prefix] = true;

      MoasAlarm alarm;
      alarm.at = network.clock().now();
      alarm.observer = vantage;
      alarm.prefix = prefix;
      alarm.reference_list = it->second.first;
      alarm.observed_list = list;
      alarm.offending_origins = entry->route.origin_candidates();
      alarm.cause = MoasAlarm::Cause::ListMismatch;
      out.push_back(std::move(alarm));
    }
  }
  return out;
}

}  // namespace moas::core
