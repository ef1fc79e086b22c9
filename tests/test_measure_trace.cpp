#include "moas/measure/trace_gen.h"

#include <gtest/gtest.h>

#include <set>

#include "moas/measure/dates.h"

namespace moas::measure {
namespace {

/// A short, cheap trace config for structural tests.
TraceConfig small_config() {
  TraceConfig config;
  config.days = 200;
  config.active_start = 50;
  config.active_end = 80;
  config.faults_per_day = 3.0;
  config.include_spike_1998 = true;  // day 150 falls inside 200 days
  config.spike_1998_cases = 500;
  config.include_spike_2001 = false;  // outside the short window
  return config;
}

TEST(TraceGen, CaseInvariants) {
  util::Rng rng(1);
  const SyntheticTrace trace = generate_trace(small_config(), rng);
  EXPECT_GT(trace.cases.size(), 500u);
  std::set<net::Prefix> prefixes;
  for (const auto& c : trace.cases) {
    EXPECT_GE(c.origins.size(), 2u) << "a MOAS case has >= 2 origins";
    EXPECT_FALSE(c.active_days.empty());
    for (std::size_t i = 0; i < c.active_days.size(); ++i) {
      EXPECT_GE(c.active_days[i], 0);
      EXPECT_LT(c.active_days[i], trace.days);
      if (i > 0) {
        EXPECT_LT(c.active_days[i - 1], c.active_days[i]) << "sorted, no dups";
      }
    }
    prefixes.insert(c.prefix);
  }
  // Every case gets its own prefix.
  EXPECT_EQ(prefixes.size(), trace.cases.size());
}

TEST(TraceGen, SpikeDayDominates) {
  util::Rng rng(2);
  const SyntheticTrace trace = generate_trace(small_config(), rng);
  const auto daily = trace.daily_case_counts();
  const int spike_day = trace_day(CivilDate{1998, 4, 7});
  ASSERT_LT(spike_day, trace.days);
  std::size_t max_other = 0;
  for (int d = 0; d < trace.days; ++d) {
    if (d != spike_day) max_other = std::max(max_other, daily[static_cast<std::size_t>(d)]);
  }
  EXPECT_GT(daily[static_cast<std::size_t>(spike_day)], max_other);
}

TEST(TraceGen, SpikeCasesAreOneDayAs8584Cases) {
  util::Rng rng(3);
  const SyntheticTrace trace = generate_trace(small_config(), rng);
  std::size_t spike_cases = 0;
  for (const auto& c : trace.cases) {
    if (c.kind != CaseKind::Spike1998) continue;
    ++spike_cases;
    EXPECT_EQ(c.active_days.size(), 1u);
    EXPECT_TRUE(c.origins.contains(8584u));
  }
  EXPECT_EQ(spike_cases, 500u);
}

TEST(TraceGen, DayDumpMatchesActiveDays) {
  util::Rng rng(4);
  const SyntheticTrace trace = generate_trace(small_config(), rng);
  const DailyDump dump = trace.day_dump(100);
  std::size_t expected = 0;
  for (const auto& c : trace.cases) {
    const bool active = std::find(c.active_days.begin(), c.active_days.end(), 100) !=
                        c.active_days.end();
    if (active) {
      ++expected;
      auto it = dump.origins.find(c.prefix);
      ASSERT_NE(it, dump.origins.end());
      EXPECT_EQ(it->second, c.origins);
    }
  }
  EXPECT_EQ(dump.origins.size(), expected);
  EXPECT_THROW(trace.day_dump(trace.days), std::invalid_argument);
}

TEST(TraceGen, BaselineFollowsRamp) {
  util::Rng rng(5);
  TraceConfig config = small_config();
  config.include_spike_1998 = false;
  config.faults_per_day = 0.0;
  const SyntheticTrace trace = generate_trace(config, rng);
  const auto daily = trace.daily_case_counts();
  // Early days near active_start, late days near active_end.
  EXPECT_NEAR(static_cast<double>(daily[10]), 50.0, 10.0);
  EXPECT_NEAR(static_cast<double>(daily[190]), 80.0, 10.0);
}

TEST(TraceGen, ValidShareOfKinds) {
  util::Rng rng(6);
  const SyntheticTrace trace = generate_trace(small_config(), rng);
  std::size_t valid = 0;
  std::size_t fault = 0;
  for (const auto& c : trace.cases) {
    if (c.valid()) ++valid;
    if (c.kind == CaseKind::Fault) ++fault;
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(fault, 0u);
}

TEST(TraceGen, Spike2001InvolvesAs15412Pair) {
  util::Rng rng(7);
  TraceConfig config;  // full window
  config.faults_per_day = 1.0;  // keep it fast
  config.spike_1998_cases = 100;
  config.spike_2001_pair_cases = 200;
  config.spike_2001_other_cases = 50;
  config.active_start = 20;
  config.active_end = 30;
  const SyntheticTrace trace = generate_trace(config, rng);
  std::size_t pair_cases = 0;
  const int spike_day = trace_day(CivilDate{2001, 4, 6});
  for (const auto& c : trace.cases) {
    if (c.kind != CaseKind::Spike2001) continue;
    EXPECT_EQ(c.active_days.front(), spike_day);
    if (c.origins.contains(15412u)) {
      ++pair_cases;
      // The de-aggregation fault lasted days, not one: these cases must not
      // pollute the one-day bucket.
      EXPECT_GE(c.active_days.size(), 2u);
    }
  }
  EXPECT_EQ(pair_cases, 200u);
}

TEST(TraceGen, DeterministicForSeed) {
  util::Rng a(9);
  util::Rng b(9);
  const SyntheticTrace ta = generate_trace(small_config(), a);
  const SyntheticTrace tb = generate_trace(small_config(), b);
  ASSERT_EQ(ta.cases.size(), tb.cases.size());
  for (std::size_t i = 0; i < ta.cases.size(); ++i) {
    EXPECT_EQ(ta.cases[i].prefix, tb.cases[i].prefix);
    EXPECT_EQ(ta.cases[i].origins, tb.cases[i].origins);
    EXPECT_EQ(ta.cases[i].active_days, tb.cases[i].active_days);
  }
}

TEST(TraceGen, KindNames) {
  EXPECT_STREQ(to_string(CaseKind::ValidMultihoming), "valid-multihoming");
  EXPECT_STREQ(to_string(CaseKind::Spike1998), "spike-1998");
}

}  // namespace
}  // namespace moas::measure
