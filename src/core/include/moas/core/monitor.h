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

#include <vector>

#include "moas/bgp/network.h"
#include "moas/core/alarm.h"

namespace moas::core {

class MoasMonitor {
 public:
  /// Monitor the given vantage ASes (each must exist in any network passed
  /// to scan()).
  explicit MoasMonitor(std::vector<bgp::Asn> vantages);

  /// One monitoring pass over the current routing tables. Returns the
  /// alarms raised by this pass (one per conflicting prefix, attributed to
  /// the first vantage that exposed the conflict).
  std::vector<MoasAlarm> scan(const bgp::Network& network) const;

  const std::vector<bgp::Asn>& vantages() const { return vantages_; }

 private:
  std::vector<bgp::Asn> vantages_;
};

}  // namespace moas::core
