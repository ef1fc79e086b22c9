// Synthetic RouteViews trace, calibrated to the paper's Section 3 numbers.
//
// The real input (daily Oregon RouteViews table dumps, 11/8/1997–7/18/2001)
// is not available offline, so we synthesize a trace whose *ground truth*
// matches every summary statistic the paper reports, and let the observer
// (observer.h) re-derive Figures 4 and 5 from the daily dumps exactly the
// way the paper's measurement does. Calibration targets (see DESIGN.md for
// the OCR reconstruction):
//   - ~38,000 distinct MOAS cases over 1349 days;
//   - baseline daily count ramping so the 1998 median is ~683 and the 2001
//     median is ~1294, dominated by long-lived valid multi-homing cases;
//   - 4/7/1998: the AS8584-style event — ~11,400 one-day cases, i.e. 82.7%
//     of all one-day cases (which are 35.9% of everything);
//   - 4/6/2001: the AS15412-style event — ~6,627 cases that day, 5,532 of
//     them involving the (3561, 15412) pair, lasting a few days;
//   - origin-set mix across cases: ~96.14% two origins, ~2.7% three.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/net/prefix.h"
#include "moas/util/rng.h"

namespace moas::measure {

/// Why a synthetic case exists (ground truth; the observer never sees this).
enum class CaseKind : std::uint8_t {
  ValidMultihoming,    // static-config multi-homing (long-lived)
  ValidAse,            // private-AS substitution on egress (long-lived)
  ValidExchangePoint,  // exchange-point prefix (small population)
  Fault,               // ordinary misconfiguration (short-lived)
  Spike1998,           // the 4/7/1998 mass fault (one day)
  Spike2001,           // the 4/6/2001 de-aggregation fault (a few days)
};

const char* to_string(CaseKind kind);

struct SyntheticCase {
  net::Prefix prefix;
  bgp::AsnSet origins;            // the origin set announced on active days
  std::vector<int> active_days;   // sorted day indices with >1 origin
  CaseKind kind = CaseKind::Fault;

  bool valid() const {
    return kind == CaseKind::ValidMultihoming || kind == CaseKind::ValidAse ||
           kind == CaseKind::ValidExchangePoint;
  }
};

/// One day's view of the table: the prefixes announced with more than one
/// origin and the origin set seen for each. (Single-origin prefixes carry no
/// MOAS information and are omitted from the dump.)
struct DailyDump {
  int day = 0;
  std::map<net::Prefix, bgp::AsnSet> origins;
};

struct TraceConfig {
  int days = 0;  // 0: use the paper's full window (trace_length_days())

  // Baseline of concurrently active (mostly valid) cases.
  double active_start = 500.0;  // target active valid cases on day 0
  double active_end = 1290.0;   // target active valid cases on the last day

  // Ordinary fault churn.
  double faults_per_day = 12.0;

  // The two headline events.
  bool include_spike_1998 = true;
  std::size_t spike_1998_cases = 11355;  // 82.7% of all one-day cases
  bool include_spike_2001 = true;
  std::size_t spike_2001_pair_cases = 5532;   // involving (3561, 15412)
  std::size_t spike_2001_other_cases = 1095;  // the rest of that day's 6627

  std::uint64_t seed = 42;
};

struct SyntheticTrace {
  int days = 0;
  std::vector<SyntheticCase> cases;

  /// Materialize one day's dump (cases active that day).
  DailyDump day_dump(int day) const;

  /// The indices into `cases` of the cases active on `day`, ascending.
  /// Each case has its own prefix, so this is day_dump's key set without
  /// copying an origin set.
  const std::vector<std::size_t>& day_cases(int day) const;

  /// Ground-truth daily counts (number of cases active per day).
  std::vector<std::size_t> daily_case_counts() const;

 private:
  friend SyntheticTrace generate_trace(const TraceConfig&, util::Rng&);
  std::vector<std::vector<std::size_t>> by_day_;  // day -> case indices
};

SyntheticTrace generate_trace(const TraceConfig& config, util::Rng& rng);

}  // namespace moas::measure
