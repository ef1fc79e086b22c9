// The measurement pipeline over daily table dumps (the paper's Section 3).
//
// A MOAS case is a prefix observed with more than one origin AS. Its
// duration is "the total number of days when the routes to an address prefix
// were announced by more than one origin, regardless of whether the days
// were continuous and regardless of whether the same set of origins was
// involved."
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "moas/measure/trace_gen.h"
#include "moas/util/stats.h"

namespace moas::measure {

/// Per-prefix accumulated observation.
struct ObservedCase {
  net::Prefix prefix;
  int first_day = 0;
  int last_day = 0;
  int duration_days = 0;          // # days with >1 origin (possibly gappy)
  std::size_t max_origins = 0;    // largest origin set seen on any day
  bgp::AsnSet all_origins;        // union over all days
};

struct TraceSummary {
  std::size_t total_cases = 0;
  std::size_t one_day_cases = 0;
  double one_day_fraction = 0.0;
  /// Of the one-day cases, the share whose single active day is `spike_day`
  /// (the paper's "82.7% ... attributed to ... April 7th, 1998").
  double one_day_spike_share = 0.0;
  int spike_day = -1;

  double two_origin_fraction = 0.0;    // cases whose max origin count is 2
  double three_origin_fraction = 0.0;  // ... is 3
  std::size_t max_daily_count = 0;
  int max_daily_count_day = -1;
  double median_daily_1998 = 0.0;  // medians of the calendar-year slices
  double median_daily_2001 = 0.0;
};

class MoasObserver {
 public:
  /// Feed one day's dump; days must arrive in increasing order.
  void ingest(const DailyDump& dump);

  /// Convenience: ingest every day of a synthetic trace.
  void ingest_all(const SyntheticTrace& trace);

  /// Figure 4: number of MOAS cases seen per day.
  const std::vector<std::size_t>& daily_counts() const { return daily_counts_; }

  /// Figure 5: histogram of case durations (days -> #cases).
  util::Histogram duration_histogram() const;

  /// All per-prefix observations.
  std::vector<ObservedCase> cases() const;
  std::size_t case_count() const { return cases_.size(); }

  /// The Section 3 headline statistics. `spike_day` defaults to 4/7/1998.
  TraceSummary summarize(int spike_day = -1) const;

 private:
  std::map<net::Prefix, ObservedCase> cases_;
  std::vector<std::size_t> daily_counts_;
  int last_day_ = -1;
};

}  // namespace moas::measure
