// Off-line MOAS monitoring (the paper's Section 4.2 deployment alternative).
//
// "one could deploy the MOAS List checking quickly in the operational
//  Internet via an off-line monitoring process, which periodically downloads
//  the BGP routing messages and checks the MOAS List consistency from
//  multiple peers."
//
// The monitor never touches the routers: it reads the Loc-RIBs of a set of
// vantage ASes (the 'multiple peers' it downloads tables from) and raises an
// alarm for every prefix whose effective MOAS lists disagree across
// vantages.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "moas/bgp/network.h"
#include "moas/core/alarm.h"
#include "moas/obs/metrics.h"

namespace moas::core {

/// Aggregated RFC 7606 error-handling counters for one network: how much
/// damage arrived and which degradation mode absorbed it. Router-side
/// `error_withdraws` counts routes revoked by treat-as-withdraw; the rest
/// come from the chaos engine's scheduled attribute corruptions (zero
/// without churn).
///
/// The counters live in the metrics registry ("router.error_withdraws" +
/// "chaos.*"); this struct is a typed view over a registry snapshot, kept
/// for callers that want named fields instead of string lookups.
struct ErrorHandlingSummary {
  std::uint64_t error_withdraws = 0;
  std::uint64_t attr_corruptions = 0;
  std::uint64_t treat_as_withdraws = 0;
  std::uint64_t attr_discards = 0;
  std::uint64_t corrupt_session_resets = 0;
  std::uint64_t poisoned_blocked = 0;

  /// Corruptions a strict RFC 4271 receiver would have answered with a
  /// session reset but revised handling degraded instead.
  std::uint64_t resets_avoided() const { return treat_as_withdraws + attr_discards; }

  /// Read the summary out of a registry snapshot (the names written by
  /// Network::collect_metrics and ChaosEngine::collect_metrics).
  static ErrorHandlingSummary from_metrics(const obs::MetricsRegistry& registry);
};

/// Render labeled registry snapshots as one aligned error-handling table
/// (one row per label) — the bench harnesses print this so degradation mode
/// is visible at a glance.
std::string error_handling_table_from_metrics(
    const std::vector<std::pair<std::string, obs::MetricsRegistry>>& rows);

class MoasMonitor {
 public:
  /// Monitor the given vantage ASes (each must exist in any network passed
  /// to scan()).
  explicit MoasMonitor(std::vector<bgp::Asn> vantages);

  /// One monitoring pass over the current routing tables. Returns the
  /// alarms raised by this pass (one per conflicting prefix, attributed to
  /// the first vantage that exposed the conflict).
  std::vector<MoasAlarm> scan(const bgp::Network& network) const;

  /// Network-wide activity summary rendered from Network::collect_metrics()
  /// — the aggregation the scattered per-router Stats never had. One line
  /// per headline metric (updates, withdrawals, best changes, error
  /// handling, transport counters).
  std::string summary(const bgp::Network& network) const;

  const std::vector<bgp::Asn>& vantages() const { return vantages_; }

 private:
  std::vector<bgp::Asn> vantages_;
};

}  // namespace moas::core
