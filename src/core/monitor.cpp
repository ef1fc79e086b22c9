#include "moas/core/monitor.h"

#include <map>
#include <sstream>

#include "moas/core/moas_list.h"
#include "moas/util/assert.h"
#include "moas/util/table.h"

namespace moas::core {

ErrorHandlingSummary ErrorHandlingSummary::from_metrics(
    const obs::MetricsRegistry& registry) {
  ErrorHandlingSummary summary;
  summary.error_withdraws = registry.counter("router.error_withdraws");
  summary.attr_corruptions = registry.counter("chaos.attr_corruptions_applied");
  summary.treat_as_withdraws = registry.counter("chaos.treat_as_withdraws");
  summary.attr_discards = registry.counter("chaos.attr_discards");
  summary.corrupt_session_resets = registry.counter("chaos.corrupt_session_resets");
  summary.poisoned_blocked = registry.counter("chaos.poisoned_blocked");
  return summary;
}

std::string error_handling_table_from_metrics(
    const std::vector<std::pair<std::string, obs::MetricsRegistry>>& rows) {
  util::TablePrinter table({"arm", "corruptions", "treat-as-withdraw", "attr-discard",
                            "resets-avoided", "session-resets", "error-withdraws",
                            "poisoned-blocked"});
  for (const auto& [label, registry] : rows) {
    const ErrorHandlingSummary s = ErrorHandlingSummary::from_metrics(registry);
    table.add_row({label, std::to_string(s.attr_corruptions),
                   std::to_string(s.treat_as_withdraws), std::to_string(s.attr_discards),
                   std::to_string(s.resets_avoided()),
                   std::to_string(s.corrupt_session_resets),
                   std::to_string(s.error_withdraws), std::to_string(s.poisoned_blocked)});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

MoasMonitor::MoasMonitor(std::vector<bgp::Asn> vantages) : vantages_(std::move(vantages)) {
  MOAS_REQUIRE(!vantages_.empty(), "monitor needs at least one vantage");
}

std::string MoasMonitor::summary(const bgp::Network& network) const {
  const obs::MetricsRegistry registry = network.collect_metrics();
  std::ostringstream os;
  os << "network: " << static_cast<std::uint64_t>(registry.gauge("network.routers"))
     << " routers, " << static_cast<std::uint64_t>(registry.gauge("network.links"))
     << " links, " << registry.counter("network.messages_sent") << " messages ("
     << registry.counter("network.messages_dropped") << " dropped)\n";
  os << "updates: " << registry.counter("router.updates_sent") << " sent / "
     << registry.counter("router.updates_received") << " received ("
     << registry.counter("router.announcements_sent") << " announce, "
     << registry.counter("router.withdrawals_sent") << " withdraw)\n";
  os << "decisions: " << registry.counter("router.decisions") << " ("
     << registry.counter("router.best_changes") << " best changes, "
     << registry.counter("router.loops_detected") << " loops, "
     << registry.counter("router.announcements_rejected") << " rejected)\n";
  os << "error handling: " << registry.counter("router.error_withdraws")
     << " error-withdraws, " << registry.counter("router.route_refreshes")
     << " refreshes, " << registry.counter("router.routes_withdrawn")
     << " routes withdrawn\n";
  os << "graceful restart: " << registry.counter("router.stale_retained")
     << " stale retained, " << registry.counter("router.stale_swept")
     << " swept, " << registry.counter("router.eor_sent") << " EoR sent\n";
  return os.str();
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
