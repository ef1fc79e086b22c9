#include "moas/measure/observer.h"

#include <gtest/gtest.h>

#include <sstream>

#include "moas/measure/dates.h"
#include "moas/measure/report.h"

namespace moas::measure {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

DailyDump dump_for(int day, std::initializer_list<std::pair<const char*, bgp::AsnSet>> rows) {
  DailyDump dump;
  dump.day = day;
  for (const auto& [prefix, origins] : rows) dump.origins[pfx(prefix)] = origins;
  return dump;
}

TEST(Observer, CountsMoasPerDay) {
  MoasObserver observer;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1, 2}}, {"10.0.1.0/24", {3, 4}}}));
  observer.ingest(dump_for(1, {{"10.0.0.0/24", {1, 2}}}));
  ASSERT_EQ(observer.daily_counts().size(), 2u);
  EXPECT_EQ(observer.daily_counts()[0], 2u);
  EXPECT_EQ(observer.daily_counts()[1], 1u);
}

TEST(Observer, SingleOriginRowsIgnored) {
  MoasObserver observer;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1}}}));
  EXPECT_EQ(observer.daily_counts()[0], 0u);
  EXPECT_EQ(observer.case_count(), 0u);
}

TEST(Observer, DumpsMustBeOrdered) {
  MoasObserver observer;
  observer.ingest(dump_for(5, {}));
  EXPECT_THROW(observer.ingest(dump_for(5, {})), std::invalid_argument);
  EXPECT_THROW(observer.ingest(dump_for(3, {})), std::invalid_argument);
}

TEST(Observer, GapDaysCountAsZero) {
  MoasObserver observer;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1, 2}}}));
  observer.ingest(dump_for(3, {{"10.0.0.0/24", {1, 2}}}));
  ASSERT_EQ(observer.daily_counts().size(), 4u);
  EXPECT_EQ(observer.daily_counts()[1], 0u);
  EXPECT_EQ(observer.daily_counts()[2], 0u);
}

TEST(Observer, DurationCountsDaysNotSpan) {
  // "the total number of days ... regardless of whether the days were
  //  continuous and regardless of whether the same set of origins was
  //  involved."
  MoasObserver observer;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1, 2}}}));
  observer.ingest(dump_for(1, {}));
  observer.ingest(dump_for(2, {{"10.0.0.0/24", {1, 3}}}));  // different origin set
  const auto cases = observer.cases();
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].duration_days, 2);  // 2 active days, not 3-day span
  EXPECT_EQ(cases[0].first_day, 0);
  EXPECT_EQ(cases[0].last_day, 2);
  EXPECT_EQ(cases[0].all_origins, (bgp::AsnSet{1, 2, 3}));
}

TEST(Observer, MaxOriginsTracked) {
  MoasObserver observer;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1, 2}}}));
  observer.ingest(dump_for(1, {{"10.0.0.0/24", {1, 2, 3, 4}}}));
  EXPECT_EQ(observer.cases()[0].max_origins, 4u);
}

TEST(Observer, DurationHistogram) {
  MoasObserver observer;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1, 2}}, {"10.0.1.0/24", {3, 4}}}));
  observer.ingest(dump_for(1, {{"10.0.0.0/24", {1, 2}}}));
  const auto hist = observer.duration_histogram();
  EXPECT_EQ(hist.count(1), 1u);
  EXPECT_EQ(hist.count(2), 1u);
}

TEST(Observer, SummaryHeadlineStats) {
  MoasObserver observer;
  const int spike_day = 3;
  observer.ingest(dump_for(0, {{"10.0.0.0/24", {1, 2}}}));
  observer.ingest(dump_for(1, {{"10.0.0.0/24", {1, 2}}}));
  observer.ingest(dump_for(2, {}));
  observer.ingest(dump_for(spike_day, {{"10.1.0.0/24", {5, 6}},
                                       {"10.1.1.0/24", {5, 7}},
                                       {"10.2.0.0/24", {8, 9, 10}}}));
  const TraceSummary summary = observer.summarize(spike_day);
  EXPECT_EQ(summary.total_cases, 4u);
  EXPECT_EQ(summary.one_day_cases, 3u);
  EXPECT_NEAR(summary.one_day_fraction, 0.75, 1e-9);
  EXPECT_NEAR(summary.one_day_spike_share, 1.0, 1e-9);  // all 3 on the spike day
  EXPECT_NEAR(summary.two_origin_fraction, 0.75, 1e-9);
  EXPECT_NEAR(summary.three_origin_fraction, 0.25, 1e-9);
  EXPECT_EQ(summary.max_daily_count, 3u);
  EXPECT_EQ(summary.max_daily_count_day, spike_day);
}

TEST(Observer, FullTraceSummaryHitsCalibrationTargets) {
  // The headline reproduction: run the observer over the full synthetic
  // trace and check the paper's Section 3 statistics within tolerance.
  util::Rng rng(1997);
  const SyntheticTrace trace = generate_trace(TraceConfig{}, rng);
  MoasObserver observer;
  observer.ingest_all(trace);
  const TraceSummary s = observer.summarize();

  EXPECT_NEAR(static_cast<double>(s.total_cases), 38245.0, 3000.0);
  EXPECT_NEAR(s.one_day_fraction, 0.359, 0.03);
  EXPECT_NEAR(s.one_day_spike_share, 0.827, 0.03);
  EXPECT_NEAR(s.median_daily_1998, 683.0, 80.0);
  EXPECT_NEAR(s.median_daily_2001, 1294.0, 120.0);
  EXPECT_NEAR(s.two_origin_fraction, 0.9614, 0.02);
  EXPECT_NEAR(s.three_origin_fraction, 0.027, 0.01);
  // The biggest day is the 4/7/1998 event.
  EXPECT_EQ(s.max_daily_count_day, trace_day(CivilDate{1998, 4, 7}));
}

TEST(Report, Fig4MonthlyBuckets) {
  util::Rng rng(3);
  TraceConfig config;
  config.days = 90;  // Nov 1997 - Feb 1998
  config.active_start = 10;
  config.active_end = 12;
  config.faults_per_day = 1.0;
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  const SyntheticTrace trace = generate_trace(config, rng);
  MoasObserver observer;
  observer.ingest_all(trace);
  const auto rows = build_fig4_series(observer);
  ASSERT_EQ(rows.size(), 4u);  // 11/97, 12/97, 01/98, 02/98
  EXPECT_EQ(rows[0].month, "11/97");
  EXPECT_EQ(rows[3].month, "02/98");
  for (const auto& row : rows) EXPECT_GT(row.mean_daily, 0.0);
}

TEST(Report, Fig5BucketsAreExhaustiveAndDisjoint) {
  util::Rng rng(4);
  TraceConfig config;
  config.days = 300;
  config.active_start = 30;
  config.active_end = 40;
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  const SyntheticTrace trace = generate_trace(config, rng);
  MoasObserver observer;
  observer.ingest_all(trace);
  const auto rows = build_fig5_histogram(observer);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].bucket_lo, 1);
  std::uint64_t total = 0;
  double fraction = 0.0;
  int prev_hi = 0;
  for (const auto& row : rows) {
    EXPECT_EQ(row.bucket_lo, prev_hi + 1) << "buckets must tile the axis";
    EXPECT_GE(row.bucket_hi, row.bucket_lo);
    prev_hi = row.bucket_hi;
    total += row.cases;
    fraction += row.fraction;
  }
  EXPECT_EQ(total, observer.case_count());
  EXPECT_NEAR(fraction, 1.0, 1e-9);
}

TEST(Report, TablesRenderWithoutCrashing) {
  util::Rng rng(5);
  TraceConfig config;
  config.days = 60;
  config.active_start = 5;
  config.active_end = 6;
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  const SyntheticTrace trace = generate_trace(config, rng);
  MoasObserver observer;
  observer.ingest_all(trace);
  std::ostringstream os;
  fig4_table(build_fig4_series(observer)).print(os);
  fig5_table(build_fig5_histogram(observer)).print(os);
  sec3_table(observer.summarize()).print(os);
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace moas::measure
