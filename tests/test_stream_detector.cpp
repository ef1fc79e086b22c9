// The sharded streaming detector: detection correctness, robustness layers
// (shedding, gap parking, TTL adoption, eviction), and --jobs determinism.
#include "moas/stream/detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "moas/measure/observer.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"

namespace moas::stream {
namespace {

measure::SyntheticTrace small_trace(std::uint64_t seed = 1, int days = 60) {
  util::Rng rng(seed);
  measure::TraceConfig config;
  config.days = days;
  config.active_start = 12;
  config.active_end = 15;
  config.faults_per_day = 0.0;  // no short-lived fault churn unless asked
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  return measure::generate_trace(config, rng);
}

StreamConfig small_config() {
  StreamConfig config;
  config.shards = 4;
  config.jobs = 2;
  config.flush_margin = 8;
  return config;
}

std::string fingerprint(const StreamDetector& d) {
  return d.alarm_log_text() + d.metrics().to_json();
}

TEST(StreamDetector, CleanReplayRaisesNoAlarms) {
  // Trace origin sets are constant per case, so a clean replay must be
  // alarm-free and the duration accounting must match the batch observer.
  const auto trace = small_trace(1);
  TraceReplaySource source(trace);
  StreamDetector detector(small_config());
  detector.run(source);

  EXPECT_TRUE(detector.merged_alarms().empty());
  const auto metrics = detector.metrics();
  EXPECT_EQ(metrics.counter("stream.alarms_raised"), 0u);
  EXPECT_EQ(metrics.counter("stream.shed_updates"), 0u);
  EXPECT_EQ(metrics.counter("stream.delivered"), source.emitted());

  measure::MoasObserver observer;
  observer.ingest_all(trace);
  const auto durations = metrics.find_histogram("stream.case_duration_days");
  ASSERT_NE(durations, nullptr);
  EXPECT_EQ(durations->count(), observer.case_count());
}

TEST(StreamDetector, AttackRaisesThenResolves) {
  const auto trace = small_trace(2);
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 3, .attacks = 4});
  std::vector<OriginOverride> overrides;
  for (const auto& p : plans) overrides.push_back(p.inject);

  TraceReplaySource source(trace, overrides);
  StreamDetector detector(small_config());
  detector.run(source);

  const auto outcomes = evaluate_attacks(plans, detector.merged_alarms(), nullptr);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.alarmed) << o.plan.inject.prefix.to_string();
    EXPECT_TRUE(o.all_settled);
    EXPECT_EQ(o.final_state, core::MoasAlarm::State::Resolved)
        << "attack ends inside the case lifetime, so the conflict clears";
    EXPECT_GE(o.latency_days, 0.0);
  }
  EXPECT_EQ(detector.metrics().counter("stream.alarms_raised"), 4u);
  EXPECT_EQ(detector.metrics().counter("stream.alarms_resolved"), 4u);
}

TEST(StreamDetector, ChurnExpiresViaTtlAndAdopts) {
  const auto trace = small_trace(3, 80);
  auto churn = plan_churn(trace, ChurnConfig{.seed = 5, .share = 0.4, .min_active_days = 40});
  ASSERT_FALSE(churn.empty());
  // Keep only churn with >= TTL days of remaining lifetime so every alarm
  // must expire-and-adopt rather than resolve at case end.
  std::vector<OriginOverride> overrides;
  for (const auto& o : churn) {
    if (o.last_day - o.first_day >= 15) overrides.push_back(o);
  }
  ASSERT_FALSE(overrides.empty());

  TraceReplaySource source(trace, overrides);
  StreamDetector detector(small_config());
  detector.run(source);

  const auto metrics = detector.metrics();
  EXPECT_EQ(metrics.counter("stream.alarms_raised"), overrides.size());
  EXPECT_EQ(metrics.counter("stream.alarms_expired"), overrides.size());
  EXPECT_EQ(metrics.counter("stream.alarms_resolved"), 0u);
  EXPECT_EQ(metrics.gauge("stream.open_alarms"), 0.0);
  // Adoption: exactly one alarm per churned prefix (no re-raise after the
  // observed set was adopted).
  for (const auto& o : overrides) {
    std::size_t alarms = 0;
    for (const auto& a : detector.merged_alarms()) alarms += a.prefix == o.prefix ? 1 : 0;
    EXPECT_EQ(alarms, 1u) << o.prefix.to_string();
  }

  // Replay again up to the last TTL expiry (finish expires nothing yet):
  // each adopted reference is the interned union of the case's origins and
  // the churned one, and a checkpoint taken there restores equal at any
  // --jobs.
  TraceReplaySource replay(trace, overrides);
  StreamDetector live(small_config());
  const auto expired = [&] {
    std::uint64_t n = 0;
    for (const DetectorShard& shard : live.shards()) n += shard.counters().alarms_expired;
    return n;
  };
  while (expired() < overrides.size()) {
    auto u = replay.next();
    ASSERT_TRUE(u.has_value());
    live.ingest(std::move(*u));
  }
  for (const auto& o : overrides) {
    const auto c = std::find_if(trace.cases.begin(), trace.cases.end(),
                                [&](const measure::SyntheticCase& k) { return k.prefix == o.prefix; });
    ASSERT_NE(c, trace.cases.end());
    bgp::AsnSet adopted = c->origins;
    adopted.insert(o.add_origin);
    const PrefixState* st = live.shards()[live.shard_of(o.prefix)].find(o.prefix);
    ASSERT_NE(st, nullptr) << o.prefix.to_string();
    EXPECT_TRUE(st->reference == core::MoasList::of(adopted)) << o.prefix.to_string();
    EXPECT_TRUE(st->observed.empty()) << o.prefix.to_string();
  }
  std::ostringstream image;
  live.save_checkpoint(image);
  for (const std::size_t jobs : {1u, 4u}) {
    StreamConfig config = small_config();
    config.jobs = jobs;
    std::istringstream is(image.str());
    const StreamDetector restored = StreamDetector::restore_checkpoint(is, config);
    EXPECT_TRUE(restored == live) << "jobs=" << jobs;
  }
}

/// A hand-made update: `prefix` announced by `origins` on `day`.
StreamUpdate update_on(std::uint64_t seq, int day, const net::Prefix& prefix,
                       bgp::AsnSet origins) {
  StreamUpdate u;
  u.seq = seq;
  u.day = day;
  u.at = static_cast<double>(day) + intra_day_frac(prefix);
  u.prefix = prefix;
  u.origins = core::MoasList::of(origins);
  return u;
}

TEST(StreamDetector, DedupWindowSuppressesWithinItAndForgetsBeyondIt) {
  // Direct ingest calls, one prefix, one day. A seq delivered again while
  // it is among the last kDupWindow admitted is suppressed; once kDupWindow
  // other seqs were admitted after it, it is delivered. The window first
  // slides twice its length, so the dedup table has erased thousands of
  // members, and the second pass saves and restores half way through.
  const net::Prefix prefix(net::Ipv4Addr(10, 3, 0, 0), 16);
  const auto admitted = [&](StreamDetector& d, const std::uint64_t seq) {
    const std::uint64_t before = d.front_counters().duplicates_suppressed;
    d.ingest(update_on(seq, 0, prefix, bgp::AsnSet{1}));
    return d.front_counters().duplicates_suppressed == before;
  };
  const std::uint64_t probe = 2 * kDupWindow;
  for (const bool restore : {false, true}) {
    StreamDetector detector(small_config());
    for (std::uint64_t seq = 0; seq < probe + kDupWindow; ++seq) {
      ASSERT_TRUE(admitted(detector, seq)) << seq;
      if (restore && seq == probe + kDupWindow / 2) {
        std::ostringstream image;
        detector.save_checkpoint(image);
        std::istringstream is(image.str());
        detector = StreamDetector::restore_checkpoint(is, small_config());
      }
    }
    // The window is [probe, probe + kDupWindow): all suppressed, and the
    // seq just before it is forgotten. Suppression changes no state.
    for (std::uint64_t seq = probe; seq < probe + kDupWindow; ++seq) {
      EXPECT_FALSE(admitted(detector, seq)) << seq << " restore=" << restore;
    }
    EXPECT_TRUE(admitted(detector, probe - 1)) << "restore=" << restore;
    // That re-admission slid `probe` out; its successor is still in.
    EXPECT_FALSE(admitted(detector, probe + 1)) << "restore=" << restore;
    EXPECT_TRUE(admitted(detector, probe)) << "restore=" << restore;
  }
}

TEST(StreamDetector, ReRaisedConflictExpiresOneTtlAfterTheReRaise) {
  // Days 0-1 clean, 2-3 conflict, 4-5 clean again, then a conflict from
  // day 6 that never clears. The TTL clock restarts at the re-raise: the
  // second alarm expires at the end of day 6 + TTL, not of day 2 + TTL.
  const net::Prefix prefix(net::Ipv4Addr(10, 1, 0, 0), 16);
  StreamConfig config = small_config();
  StreamDetector detector(config);
  std::uint64_t seq = 0;
  for (int day = 0; day <= 24; ++day) {
    const bool conflict = (day >= 2 && day <= 3) || day >= 6;
    detector.ingest(update_on(seq++, day, prefix, conflict ? bgp::AsnSet{1, 2} : bgp::AsnSet{1}));
  }
  detector.flush_all();

  const auto alarms = detector.merged_alarms();
  ASSERT_EQ(alarms.size(), 2u);
  EXPECT_EQ(alarms[0].state, core::MoasAlarm::State::Resolved);
  EXPECT_EQ(alarms[0].settled_at, 4.0 + intra_day_frac(prefix));
  EXPECT_EQ(alarms[1].state, core::MoasAlarm::State::Expired);
  EXPECT_EQ(alarms[1].at, 6.0 + intra_day_frac(prefix));
  EXPECT_EQ(alarms[1].settled_at, 6.0 + kConflictTtlDays + 1.0);
  EXPECT_EQ(detector.metrics().counter("stream.alarms_expired"), 1u);
}

TEST(StreamDetector, ConflictsOfOneDayExpireTogetherAtAnyJobs) {
  // Two prefixes of one shard, and one of another, all begin conflicting
  // on day 1. Every alarm expires at the end of day 1 + TTL, and the log
  // is byte-identical at --jobs 1 and 3.
  StreamConfig config = small_config();
  config.shards = 3;
  const StreamDetector probe(config);
  std::vector<net::Prefix> same_shard;
  net::Prefix other;
  for (std::uint8_t k = 0; same_shard.size() < 2 || other.length() == 0; ++k) {
    const net::Prefix p(net::Ipv4Addr(10, 2, k, 0), 24);
    if (probe.shard_of(p) == 0 && same_shard.size() < 2) {
      same_shard.push_back(p);
    } else if (probe.shard_of(p) != 0 && other.length() == 0) {
      other = p;
    }
  }
  const std::vector<net::Prefix> prefixes = {same_shard[1], other, same_shard[0]};

  std::string reference;
  for (const std::size_t jobs : {1u, 3u}) {
    config.jobs = jobs;
    StreamDetector detector(config);
    std::uint64_t seq = 0;
    for (int day = 0; day <= 15; ++day) {
      for (const net::Prefix& p : prefixes) {
        detector.ingest(update_on(seq++, day, p, day >= 1 ? bgp::AsnSet{1, 2} : bgp::AsnSet{1}));
      }
    }
    detector.flush_all();

    const auto alarms = detector.merged_alarms();
    ASSERT_EQ(alarms.size(), prefixes.size());
    for (const core::MoasAlarm& a : alarms) {
      EXPECT_EQ(a.state, core::MoasAlarm::State::Expired) << a.prefix.to_string();
      EXPECT_EQ(a.settled_at, 1.0 + kConflictTtlDays + 1.0) << a.prefix.to_string();
    }
    if (reference.empty()) {
      reference = detector.alarm_log_text();
    } else {
      EXPECT_EQ(detector.alarm_log_text(), reference) << "jobs=" << jobs;
    }
  }
}

TEST(StreamDetector, GapCrossingConflictParksAsPending) {
  // An attack that starts inside a feed gap: the first post-gap update
  // shows a conflict whose onset was unobserved. The alarm must settle to
  // Pending (parked), not stand as a firm Raised/hijack story.
  const auto trace = small_trace(4, 60);
  const auto plans = plan_attacks(
      trace, AttackConfig{.seed = 11, .attacks = 2, .duration_mean_days = 8.0, .lead_days = 10});
  std::vector<OriginOverride> overrides;
  chaos::FeedFaultSchedule schedule;
  for (const auto& p : plans) {
    overrides.push_back(p.inject);
    // Blackout the feed over the attack onset.
    schedule.gaps.push_back({p.inject.first_day, p.inject.first_day + 1});
  }
  std::sort(schedule.gaps.begin(), schedule.gaps.end(),
            [](const chaos::GapWindow& a, const chaos::GapWindow& b) {
              return a.first_day < b.first_day;
            });

  TraceReplaySource source(trace, overrides);
  FaultyFeed faulty(source, schedule);
  StreamDetector detector(small_config());
  detector.run(faulty);

  EXPECT_EQ(detector.metrics().counter("stream.alarms_parked"), plans.size());
  EXPECT_EQ(detector.metrics().counter("stream.gap_days"),
            static_cast<std::uint64_t>(schedule.gap_days()));
  // Parked alarms still settle eventually (here: resolved when the attack
  // ends inside the case lifetime) — nothing is lost.
  const auto outcomes = evaluate_attacks(plans, detector.merged_alarms(), &schedule);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.observable);  // only the onset was dark
    EXPECT_TRUE(o.alarmed);
    EXPECT_TRUE(o.all_settled);
  }
}

TEST(StreamDetector, DuplicateDeliveryIsSuppressed) {
  const auto trace = small_trace(5);
  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 13;
  fault_config.duplicate_prob = 0.05;
  const auto schedule = chaos::compile_feed_faults(fault_config);

  TraceReplaySource source(trace);
  FaultyFeed faulty(source, schedule);
  StreamDetector detector(small_config());
  detector.run(faulty);

  EXPECT_GT(faulty.counters().duplicated, 0u);
  EXPECT_EQ(detector.front_counters().duplicates_suppressed, faulty.counters().duplicated);
  EXPECT_TRUE(detector.merged_alarms().empty());

  // Duplicates must not perturb measurement: durations equal the clean run.
  TraceReplaySource clean(trace);
  StreamDetector reference(small_config());
  reference.run(clean);
  EXPECT_EQ(detector.metrics().find_histogram("stream.case_duration_days")->count(),
            reference.metrics().find_histogram("stream.case_duration_days")->count());
}

TEST(StreamDetector, GarbledLinesAreRejectedNotCrashed) {
  const auto trace = small_trace(6);
  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 17;
  fault_config.garble_prob = 0.03;
  const auto schedule = chaos::compile_feed_faults(fault_config);

  TraceReplaySource source(trace);
  FaultyFeed faulty(source, schedule);
  StreamDetector detector(small_config());
  detector.run(faulty);

  EXPECT_GT(faulty.counters().garbled, 0u);
  EXPECT_EQ(detector.front_counters().malformed_rejected, faulty.counters().garbled);
  EXPECT_TRUE(detector.merged_alarms().empty());
}

TEST(StreamDetector, SheddingDegradesMeasurementNeverDetection) {
  const auto trace = small_trace(7);
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 19, .attacks = 3});
  std::vector<OriginOverride> overrides;
  for (const auto& p : plans) overrides.push_back(p.inject);

  StreamConfig config = small_config();
  config.shard.day_capacity = 2;  // far below the per-shard daily volume
  TraceReplaySource source(trace, overrides);
  StreamDetector detector(config);
  obs::TraceBus trace_bus(obs::TraceLevel::Summary);
  detector.set_trace(&trace_bus);
  detector.run(source);

  const auto metrics = detector.metrics();
  EXPECT_GT(metrics.counter("stream.shed_updates"), 0u);
  EXPECT_GT(metrics.counter("stream.moas_days_shed"), 0u);
  // Detection is intact: every attack alarmed and settled.
  const auto outcomes = evaluate_attacks(plans, detector.merged_alarms(), nullptr);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.alarmed);
    EXPECT_TRUE(o.all_settled);
  }
  // Shedding is observable on the trace bus.
  bool saw_shed_event = false;
  for (const auto& event : trace_bus.events()) {
    saw_shed_event = saw_shed_event || event.kind == obs::EventKind::UpdatesShed;
  }
  EXPECT_TRUE(saw_shed_event);
}

TEST(StreamDetector, MemoryBudgetEvictsColdStateAndBoundsFootprint) {
  // Heavy short-lived fault churn: dead prefix state piles up and must be
  // evicted to stay inside the budget.
  util::Rng rng(8);
  measure::TraceConfig trace_config;
  trace_config.days = 90;
  trace_config.active_start = 4;
  trace_config.active_end = 5;
  trace_config.faults_per_day = 8.0;
  trace_config.include_spike_1998 = false;
  trace_config.include_spike_2001 = false;
  const auto trace = measure::generate_trace(trace_config, rng);

  StreamConfig config = small_config();
  config.shard.memory_budget_bytes = 8 * 1024;
  config.shard.evict_idle_days = 5;
  TraceReplaySource source(trace);
  StreamDetector detector(config);
  obs::TraceBus trace_bus(obs::TraceLevel::Summary);
  detector.set_trace(&trace_bus);
  detector.run(source);

  const auto metrics = detector.metrics();
  EXPECT_GT(metrics.counter("stream.evicted_prefixes"), 0u);
  EXPECT_LE(metrics.gauge("stream.peak_bytes_held"),
            static_cast<double>(config.shards * config.shard.memory_budget_bytes));
  bool saw_evict_event = false;
  for (const auto& event : trace_bus.events()) {
    saw_evict_event = saw_evict_event || event.kind == obs::EventKind::StateEvicted;
  }
  EXPECT_TRUE(saw_evict_event);

  // Eviction folds durations instead of losing them: the histogram's total
  // accrued days equal the batch observer's ground truth exactly (a case
  // evicted mid-life and recreated splits into two entries, so the entry
  // count may exceed the case count — the day total never changes).
  measure::MoasObserver observer;
  observer.ingest_all(trace);
  double expected_days = 0.0;
  for (const auto& c : observer.cases()) expected_days += static_cast<double>(c.duration_days);
  const auto* durations = metrics.find_histogram("stream.case_duration_days");
  ASSERT_NE(durations, nullptr);
  EXPECT_EQ(durations->sum(), expected_days);
  EXPECT_GE(durations->count(), observer.case_count());
}

TEST(StreamDetector, ByteIdenticalAcrossJobsAndShardsConfig) {
  const auto trace = small_trace(9);
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 23, .attacks = 3});
  std::vector<OriginOverride> overrides;
  for (const auto& p : plans) overrides.push_back(p.inject);

  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 29;
  fault_config.duplicate_prob = 0.02;
  fault_config.reorder_prob = 0.05;
  fault_config.garble_prob = 0.01;
  const auto schedule = chaos::compile_feed_faults(fault_config);

  std::string reference;
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    TraceReplaySource source(trace, overrides);
    FaultyFeed faulty(source, schedule);
    StreamConfig config = small_config();
    config.jobs = jobs;
    StreamDetector detector(config);
    detector.run(faulty);
    const std::string got = fingerprint(detector);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "jobs=" << jobs;
    }
  }
  ASSERT_FALSE(reference.empty());
}

TEST(StreamDetector, CheckpointImagesByteIdenticalAcrossJobs) {
  // The faulted run above, with a checkpoint every 5 flushed days: every
  // image, byte for byte, is the same at any --jobs.
  const auto trace = small_trace(9);
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 23, .attacks = 3});
  std::vector<OriginOverride> overrides;
  for (const auto& p : plans) overrides.push_back(p.inject);

  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 29;
  fault_config.duplicate_prob = 0.02;
  fault_config.reorder_prob = 0.05;
  fault_config.garble_prob = 0.01;
  const auto schedule = chaos::compile_feed_faults(fault_config);

  for (const std::size_t shards : {1u, 3u, 8u}) {
    std::vector<std::string> reference;
    for (const std::size_t jobs : {1u, 2u, 4u}) {
      TraceReplaySource source(trace, overrides);
      FaultyFeed faulty(source, schedule);
      StreamConfig config = small_config();
      config.shards = shards;
      config.jobs = jobs;
      config.checkpoint_every_days = 5;
      StreamDetector detector(config);
      std::vector<std::string> images;
      detector.run(faulty, [&](const StreamDetector& d, int) {
        std::ostringstream image;
        d.save_checkpoint(image);
        images.push_back(std::move(image).str());
      });
      if (reference.empty()) {
        ASSERT_GT(images.size(), 5u);
        reference = std::move(images);
        continue;
      }
      ASSERT_EQ(images.size(), reference.size()) << "shards=" << shards << " jobs=" << jobs;
      for (std::size_t i = 0; i < images.size(); ++i) {
        EXPECT_TRUE(images[i] == reference[i])
            << "image " << i << " shards=" << shards << " jobs=" << jobs;
      }
    }
  }
}

TEST(StreamDetector, StateTableSavesInPrefixOrderAndEvictsTiesByPrefix) {
  // One shard sees 300 prefixes on day 0, first in descending and then in
  // shuffled order. All tie on last_day, and the budget holds all but 40
  // states, so eviction takes the 40 lowest prefixes; the saved state
  // lines then list the rest in ascending order.
  constexpr std::size_t kPrefixes = 300;
  constexpr std::size_t kEvicted = 40;
  std::vector<net::Prefix> ascending;
  for (std::size_t i = 0; i < kPrefixes; ++i) {
    ascending.emplace_back(net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 8),
                                         static_cast<std::uint8_t>(i & 0xff), 0),
                           24);
  }
  std::vector<net::Prefix> descending(ascending.rbegin(), ascending.rend());
  std::vector<net::Prefix> shuffled = ascending;
  util::Rng rng(47);
  rng.shuffle(shuffled);

  for (const auto& seen : {descending, shuffled}) {
    StreamConfig config = small_config();
    config.shards = 1;
    // The shard's base cost plus one single-origin state per kept prefix.
    config.shard.memory_budget_bytes = 256 + 208 * (kPrefixes - kEvicted);
    StreamDetector detector(config);
    for (std::size_t k = 0; k < seen.size(); ++k) {
      // Times rise in the order seen, so the day's batch keeps that order.
      StreamUpdate u = update_on(k, 0, seen[k], bgp::AsnSet{1});
      u.at = 0.05 + 0.9 * static_cast<double>(k) / kPrefixes;
      detector.ingest(std::move(u));
    }
    detector.flush_all();

    EXPECT_EQ(detector.metrics().counter("stream.evicted_prefixes"), kEvicted);
    for (std::size_t i = 0; i < kPrefixes; ++i) {
      EXPECT_EQ(detector.shards()[0].find(ascending[i]) == nullptr, i < kEvicted)
          << ascending[i].to_string();
    }

    std::ostringstream image;
    detector.save_checkpoint(image);
    std::istringstream lines(image.str());
    std::vector<net::Prefix> saved;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("state ", 0) != 0) continue;
      saved.push_back(*net::Prefix::parse(line.substr(6, line.find(' ', 6) - 6)));
    }
    EXPECT_EQ(saved, std::vector<net::Prefix>(ascending.begin() + kEvicted, ascending.end()));
  }
}

TEST(StreamDetector, MonthScaleFaultedRunStaysBoundedAndLosesNothing) {
  // The month-scale soak: ~90 days, attacks + churn + every fault family,
  // tight memory and alarm retention. Gates: every observable attack
  // alarmed, zero open alarms at the end, footprint within budget.
  const auto trace = small_trace(10, 90);
  const auto churn = plan_churn(trace, ChurnConfig{.seed = 31, .share = 0.1});
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 37, .attacks = 5}, churn);
  std::vector<OriginOverride> overrides = churn;
  for (const auto& p : plans) overrides.push_back(p.inject);

  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 41;
  fault_config.horizon_days = 90;
  fault_config.gaps = 2.0;
  fault_config.duplicate_prob = 0.02;
  fault_config.reorder_prob = 0.04;
  fault_config.garble_prob = 0.01;
  const auto schedule = chaos::compile_feed_faults(fault_config);

  StreamConfig config = small_config();
  config.shard.memory_budget_bytes = 64 * 1024;
  config.shard.alarm_retention = 64;
  TraceReplaySource source(trace, overrides);
  FaultyFeed faulty(source, schedule);
  StreamDetector detector(config);
  detector.run(faulty);

  const auto metrics = detector.metrics();
  EXPECT_EQ(metrics.gauge("stream.open_alarms"), 0.0);
  EXPECT_LE(metrics.gauge("stream.peak_bytes_held"),
            static_cast<double>(config.shards * config.shard.memory_budget_bytes));
  const auto outcomes = evaluate_attacks(plans, detector.merged_alarms(), &schedule);
  for (const auto& o : outcomes) {
    if (!o.observable) continue;
    EXPECT_TRUE(o.alarmed) << o.plan.inject.prefix.to_string();
    EXPECT_TRUE(o.all_settled);
  }
}

}  // namespace
}  // namespace moas::stream
