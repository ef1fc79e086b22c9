// Trace replay determinism and the faulty-feed transport model.
#include "moas/stream/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "moas/stream/feed.h"

namespace moas::stream {
namespace {

measure::SyntheticTrace small_trace(std::uint64_t seed = 1, int days = 60) {
  util::Rng rng(seed);
  measure::TraceConfig config;
  config.days = days;
  config.active_start = 12;
  config.active_end = 15;
  config.faults_per_day = 2.0;
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  return measure::generate_trace(config, rng);
}

std::vector<StreamUpdate> drain(UpdateFeed& feed) {
  std::vector<StreamUpdate> out;
  while (auto u = feed.next()) out.push_back(std::move(*u));
  return out;
}

TEST(TraceReplay, StreamIsOrderedDenseAndDeterministic) {
  const auto trace = small_trace();
  TraceReplaySource a(trace);
  TraceReplaySource b(trace);
  const auto ua = drain(a);
  const auto ub = drain(b);
  ASSERT_FALSE(ua.empty());
  ASSERT_EQ(ua, ub);  // same trace -> byte-identical stream

  double prev_at = -1.0;
  for (std::size_t i = 0; i < ua.size(); ++i) {
    EXPECT_EQ(ua[i].seq, i);  // dense sequence numbers
    EXPECT_GE(ua[i].at, prev_at);
    prev_at = ua[i].at;
    EXPECT_EQ(ua[i].day, static_cast<int>(ua[i].at));
    EXPECT_FALSE(ua[i].malformed);
    EXPECT_GE(ua[i].origins.set().size(), 2u);
  }
}

TEST(TraceReplay, MatchesTheDailyDumps) {
  const auto trace = small_trace(2);
  TraceReplaySource source(trace);
  std::map<int, std::map<net::Prefix, bgp::AsnSet>> by_day;
  for (const auto& u : drain(source)) by_day[u.day][u.prefix] = u.origins.set();
  for (int day = 0; day < trace.days; ++day) {
    EXPECT_EQ(by_day[day], trace.day_dump(day).origins) << "day " << day;
  }
}

TEST(TraceReplay, OverridesInjectExtraOriginsOnlyInTheirWindow) {
  const auto trace = small_trace(3);
  // Pick a long-lived case and inject an attacker for a 3-day window.
  const AttackConfig config{.seed = 9, .attacks = 1, .duration_mean_days = 3.0};
  const auto plans = plan_attacks(trace, config);
  ASSERT_EQ(plans.size(), 1u);
  const OriginOverride& o = plans[0].inject;
  // A second window on the same prefix that opens a day after the first
  // and closes two days after it: the announced set changes at each of
  // the four edges, and the victim stays active past both.
  OriginOverride later = o;
  later.add_origin = o.add_origin + 1;
  later.first_day = o.first_day + 1;
  later.last_day = o.last_day + 2;
  const auto c = std::find_if(trace.cases.begin(), trace.cases.end(),
                              [&](const measure::SyntheticCase& k) { return k.prefix == o.prefix; });
  ASSERT_NE(c, trace.cases.end());

  TraceReplaySource source(trace, {o, later});
  for (const auto& u : drain(source)) {
    if (u.prefix != o.prefix) continue;
    const bool in_window = u.day >= o.first_day && u.day <= o.last_day;
    const bool in_later = u.day >= later.first_day && u.day <= later.last_day;
    EXPECT_EQ(u.origins.set().contains(o.add_origin), in_window) << "day " << u.day;
    EXPECT_EQ(u.origins.set().contains(later.add_origin), in_later) << "day " << u.day;
    EXPECT_EQ(u.origins.set().size(), c->origins.size() + in_window + in_later) << "day " << u.day;
  }
}

TEST(TraceReplay, FastForwardEqualsConsumingInline) {
  const auto trace = small_trace(4);
  TraceReplaySource full(trace);
  const auto all = drain(full);
  ASSERT_GT(all.size(), 100u);

  TraceReplaySource skipped(trace);
  fast_forward(skipped, 100);
  const auto rest = drain(skipped);
  ASSERT_EQ(rest.size(), all.size() - 100);
  for (std::size_t i = 0; i < rest.size(); ++i) EXPECT_EQ(rest[i], all[i + 100]);

  TraceReplaySource tiny(trace);
  EXPECT_THROW(fast_forward(tiny, all.size() + 1), std::invalid_argument);
}

TEST(AttackPlanning, PlansAreDeterministicDisjointAndFeasible) {
  const auto trace = small_trace(5);
  AttackConfig config;
  config.seed = 21;
  config.attacks = 8;
  const auto plans = plan_attacks(trace, config);
  const auto again = plan_attacks(trace, config);
  ASSERT_EQ(plans.size(), 8u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].inject, again[i].inject);
    EXPECT_EQ(plans[i].injected_at, again[i].injected_at);
  }
  std::set<net::Prefix> prefixes;
  for (const auto& p : plans) {
    EXPECT_TRUE(prefixes.insert(p.inject.prefix).second) << "at most one attack per prefix";
    EXPECT_GT(p.inject.add_origin, 30000u) << "attacker ASN outside the trace origin pool";
    EXPECT_LE(p.inject.first_day, p.inject.last_day);
    EXPECT_GE(p.injected_at, static_cast<double>(p.inject.first_day));
  }
}

TEST(AttackPlanning, AvoidListIsRespectedAndOverAskThrows) {
  const auto trace = small_trace(6);
  const auto churn = plan_churn(trace, ChurnConfig{.seed = 2, .share = 0.5, .min_active_days = 10});
  ASSERT_FALSE(churn.empty());
  AttackConfig config;
  config.attacks = 5;
  const auto plans = plan_attacks(trace, config, churn);
  std::set<net::Prefix> churned;
  for (const auto& o : churn) churned.insert(o.prefix);
  for (const auto& p : plans) EXPECT_FALSE(churned.contains(p.inject.prefix));

  config.attacks = 100000;  // more than the trace can host
  EXPECT_THROW(plan_attacks(trace, config), std::invalid_argument);
}

TEST(FaultyFeedTest, NoFaultsIsTransparent) {
  const auto trace = small_trace(7);
  const auto schedule = chaos::compile_feed_faults(chaos::FeedFaultConfig{});
  TraceReplaySource clean(trace);
  TraceReplaySource inner(trace);
  FaultyFeed faulty(inner, schedule);
  EXPECT_EQ(drain(clean), drain(faulty));
  EXPECT_EQ(faulty.counters().gap_dropped, 0u);
  EXPECT_EQ(faulty.counters().duplicated, 0u);
}

TEST(FaultyFeedTest, GapWindowsDropWholeDays) {
  const auto trace = small_trace(8, 40);
  chaos::FeedFaultSchedule schedule;
  schedule.gaps = {{10, 12}, {25, 25}};
  TraceReplaySource inner(trace);
  FaultyFeed faulty(inner, schedule);
  std::uint64_t expected_dropped = 0;
  for (const int day : {10, 11, 12, 25}) {
    expected_dropped += trace.day_dump(day).origins.size();
  }
  for (const auto& u : drain(faulty)) {
    EXPECT_FALSE(schedule.gapped(u.day)) << "update leaked out of a gap window";
  }
  EXPECT_EQ(faulty.counters().gap_dropped, expected_dropped);
}

TEST(FaultyFeedTest, DuplicatesReorderAndGarbleWithBoundedSkew) {
  const auto trace = small_trace(9);
  chaos::FeedFaultConfig config;
  config.seed = 77;
  config.duplicate_prob = 0.03;
  config.reorder_prob = 0.05;
  config.reorder_max_skew = 6;
  config.garble_prob = 0.01;
  const auto schedule = chaos::compile_feed_faults(config);

  TraceReplaySource inner(trace);
  FaultyFeed faulty(inner, schedule);
  const auto updates = drain(faulty);
  const auto& c = faulty.counters();
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.reordered, 0u);
  EXPECT_GT(c.garbled, 0u);

  TraceReplaySource clean_source(trace);
  const auto clean = drain(clean_source);
  EXPECT_EQ(updates.size(), clean.size() + c.duplicated);

  // Every seq arrives at most twice, displaced by at most max_skew slots
  // from its clean position, and garbled copies carry no origins.
  std::map<std::uint64_t, int> seen;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto& u = updates[i];
    ASSERT_LE(++seen[u.seq], 2);
    if (u.malformed) {
      EXPECT_TRUE(u.origins.empty());
    }
    // Clean position of seq s is s; faulted position is displaced by the
    // number of earlier duplicates (<= i) plus the skew bound.
    EXPECT_LE(static_cast<double>(i),
              static_cast<double>(u.seq) + static_cast<double>(c.duplicated) +
                  static_cast<double>(config.reorder_max_skew) + 1.0);
  }

  // Same schedule, same source: byte-identical faulted stream.
  TraceReplaySource inner2(trace);
  FaultyFeed faulty2(inner2, schedule);
  EXPECT_EQ(drain(faulty2), updates);
}

TEST(EvaluateAttacks, MatchesAlarmsAndGapObservability) {
  AttackPlan plan;
  plan.inject.prefix = *net::Prefix::parse("10.1.0.0/16");
  plan.inject.add_origin = 55555;
  plan.inject.first_day = 10;
  plan.inject.last_day = 11;
  plan.injected_at = 10.4;

  core::MoasAlarm hit;
  hit.prefix = plan.inject.prefix;
  hit.at = 10.4;
  hit.state = core::MoasAlarm::State::Resolved;
  core::MoasAlarm earlier;  // pre-attack alarm on the same prefix: ignored
  earlier.prefix = plan.inject.prefix;
  earlier.at = 3.0;
  earlier.state = core::MoasAlarm::State::Resolved;

  const auto outcomes = evaluate_attacks({plan}, {earlier, hit}, nullptr);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].observable);
  EXPECT_TRUE(outcomes[0].alarmed);
  EXPECT_TRUE(outcomes[0].all_settled);
  EXPECT_NEAR(outcomes[0].latency_days, 0.0, 1e-12);
  EXPECT_EQ(outcomes[0].final_state, core::MoasAlarm::State::Resolved);

  // Fully gapped attack window -> unobservable, not counted as lost.
  chaos::FeedFaultSchedule faults;
  faults.gaps = {{9, 12}};
  const auto gapped = evaluate_attacks({plan}, {}, &faults);
  EXPECT_FALSE(gapped[0].observable);
  EXPECT_FALSE(gapped[0].alarmed);
}

}  // namespace
}  // namespace moas::stream
