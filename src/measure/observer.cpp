#include "moas/measure/observer.h"

#include <algorithm>

#include "moas/measure/dates.h"
#include "moas/util/assert.h"

namespace moas::measure {

void MoasObserver::ingest(const DailyDump& dump) {
  MOAS_REQUIRE(dump.day > last_day_, "dumps must arrive in increasing day order");
  // Record empty days between dumps as zero-count days.
  while (static_cast<int>(daily_counts_.size()) < dump.day) daily_counts_.push_back(0);
  last_day_ = dump.day;

  std::size_t count = 0;
  for (const auto& [prefix, origins] : dump.origins) {
    if (origins.size() < 2) continue;  // not a MOAS observation
    ++count;
    auto [it, fresh] = cases_.try_emplace(prefix);
    ObservedCase& c = it->second;
    if (fresh) {
      c.prefix = prefix;
      c.first_day = dump.day;
    }
    c.last_day = dump.day;
    ++c.duration_days;
    c.max_origins = std::max(c.max_origins, origins.size());
    for (bgp::Asn asn : origins) c.all_origins.insert(asn);
  }
  daily_counts_.push_back(count);
}

void MoasObserver::ingest_all(const SyntheticTrace& trace) {
  for (int day = 0; day < trace.days; ++day) ingest(trace.day_dump(day));
}

util::Histogram MoasObserver::duration_histogram() const {
  util::Histogram hist;
  for (const auto& [prefix, c] : cases_) hist.add(c.duration_days);
  return hist;
}

std::vector<ObservedCase> MoasObserver::cases() const {
  std::vector<ObservedCase> out;
  out.reserve(cases_.size());
  for (const auto& [prefix, c] : cases_) out.push_back(c);
  return out;
}

TraceSummary MoasObserver::summarize(int spike_day) const {
  if (spike_day < 0) spike_day = trace_day(CivilDate{1998, 4, 7});

  TraceSummary s;
  s.spike_day = spike_day;
  s.total_cases = cases_.size();

  std::size_t one_day_on_spike = 0;
  std::size_t two_origin = 0;
  std::size_t three_origin = 0;
  for (const auto& [prefix, c] : cases_) {
    if (c.duration_days == 1) {
      ++s.one_day_cases;
      if (c.first_day == spike_day) ++one_day_on_spike;
    }
    if (c.max_origins == 2) ++two_origin;
    if (c.max_origins == 3) ++three_origin;
  }
  if (s.total_cases > 0) {
    s.one_day_fraction =
        static_cast<double>(s.one_day_cases) / static_cast<double>(s.total_cases);
    s.two_origin_fraction = static_cast<double>(two_origin) / static_cast<double>(s.total_cases);
    s.three_origin_fraction =
        static_cast<double>(three_origin) / static_cast<double>(s.total_cases);
  }
  if (s.one_day_cases > 0) {
    s.one_day_spike_share =
        static_cast<double>(one_day_on_spike) / static_cast<double>(s.one_day_cases);
  }

  std::vector<double> y1998;
  std::vector<double> y2001;
  for (std::size_t day = 0; day < daily_counts_.size(); ++day) {
    const std::size_t count = daily_counts_[day];
    if (count > s.max_daily_count) {
      s.max_daily_count = count;
      s.max_daily_count_day = static_cast<int>(day);
    }
    const int year = trace_date(static_cast<int>(day)).year;
    if (year == 1998) y1998.push_back(static_cast<double>(count));
    if (year == 2001) y2001.push_back(static_cast<double>(count));
  }
  if (!y1998.empty()) s.median_daily_1998 = util::median(std::move(y1998));
  if (!y2001.empty()) s.median_daily_2001 = util::median(std::move(y2001));
  return s;
}

}  // namespace moas::measure
