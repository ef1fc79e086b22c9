// An independent model of the streaming detector, used as a test oracle.
//
// The model keeps one ordered map of prefix states and one dedup window.
// It is fed the same delivered updates as the detector and applies the
// paper's Sec. 4 rule (an announcement whose origins are not all in the
// prefix's MOAS list raises an alarm), feed-gap parking and the conflict
// TTL's adoption, one trace day at a time. It has no shards, no flush
// margin and no shedding. With a byte budget it evicts by the detector's
// victim rule: alarm-free states, lowest (last_day, prefix) first.
//
// The feeds here never deliver an update after its day was flushed (no
// reorder skew beyond the flush margin), so a detector batch is exactly one
// trace day; each run checks that premise through `late_updates`.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "moas/measure/trace_gen.h"
#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"

namespace moas::stream {
namespace {

class StreamModel {
 public:
  explicit StreamModel(std::uint64_t budget_bytes = 0) : budget_(budget_bytes) {}

  /// The front end: reject garbled lines and repeats inside the window of
  /// the last kDupWindow admitted seqs, then file the update under its day.
  void deliver(const StreamUpdate& u) {
    if (u.malformed) {
      ++malformed_;
      return;
    }
    if (window_.contains(u.seq)) {
      ++duplicates_;
      return;
    }
    window_.insert(u.seq);
    window_order_.push_back(u.seq);
    if (window_order_.size() > kDupWindow) {
      window_.erase(window_order_.front());
      window_order_.pop_front();
    }
    days_[u.day].push_back(u);
  }

  /// Process every day in order, then expire the conflicts still open.
  void finish() {
    int last = -1;
    for (auto& [day, updates] : days_) {
      if (day > last + 1) gaps_.push_back({last + 1, day - 1});
      std::sort(updates.begin(), updates.end(), [](const StreamUpdate& a, const StreamUpdate& b) {
        return a.at != b.at ? a.at < b.at : a.seq < b.seq;
      });
      for (const StreamUpdate& u : updates) apply(u);
      end_day(day);
      last = day;
    }
    for (auto& [prefix, st] : states_) {
      if (st.alarm) settle(st, core::MoasAlarm::State::Expired, last + 1.0);
    }
  }

  /// Every alarm, sorted as StreamDetector::merged_alarms sorts them.
  std::vector<core::MoasAlarm> alarms() const {
    std::vector<core::MoasAlarm> out = alarms_;
    std::sort(out.begin(), out.end(), [](const core::MoasAlarm& a, const core::MoasAlarm& b) {
      return a.at != b.at ? a.at < b.at : a.prefix < b.prefix;
    });
    return out;
  }
  std::uint64_t malformed() const { return malformed_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t evicted() const { return evicted_; }
  std::uint64_t parked() const { return parked_; }
  std::uint64_t ttl_expired() const { return ttl_expired_; }

 private:
  struct State {
    bgp::AsnSet reference;
    bgp::AsnSet observed;
    std::optional<std::size_t> alarm;  // index into alarms_ while open
    int last_day = -1;
    int conflict_day = -1;
  };

  void apply(const StreamUpdate& u) {
    const auto [it, fresh] = states_.try_emplace(u.prefix);
    State& st = it->second;
    const bgp::AsnSet& origins = u.origins.set();
    if (fresh) st.reference = origins;
    const bool covered = std::all_of(origins.begin(), origins.end(),
                                     [&](bgp::Asn asn) { return st.reference.contains(asn); });
    if (!covered) {
      st.observed = origins;
      if (!st.alarm) {
        core::MoasAlarm alarm;
        alarm.at = u.at;
        alarm.observer = kStreamObserver;
        alarm.prefix = u.prefix;
        alarm.reference_list = st.reference;
        alarm.observed_list = origins;
        for (const bgp::Asn asn : origins) {
          if (!st.reference.contains(asn)) alarm.offending_origins.insert(asn);
        }
        // Days the feed never delivered between the last sighting and now
        // may hide the conflict's onset.
        for (const chaos::GapWindow& g : gaps_) {
          if (g.first_day < u.day && g.last_day > st.last_day) {
            alarm.state = core::MoasAlarm::State::Pending;
          }
        }
        if (alarm.state == core::MoasAlarm::State::Pending) ++parked_;
        st.alarm = alarms_.size();
        st.conflict_day = u.day;
        alarms_.push_back(std::move(alarm));
      }
    } else if (st.alarm) {
      settle(st, core::MoasAlarm::State::Resolved, u.at);
      st.observed.clear();
    }
    st.last_day = std::max(st.last_day, u.day);
  }

  void settle(State& st, core::MoasAlarm::State state, double at) {
    alarms_[*st.alarm].state = state;
    alarms_[*st.alarm].settled_at = at;
    st.alarm.reset();
  }

  void end_day(int day) {
    for (auto& [prefix, st] : states_) {
      if (st.alarm && day - st.conflict_day >= kConflictTtlDays) {
        settle(st, core::MoasAlarm::State::Expired, day + 1.0);
        ++ttl_expired_;
        st.reference.insert(st.observed.begin(), st.observed.end());
        st.observed.clear();
      }
    }
    if (budget_ == 0) return;
    // The detector's accounting units: a flat cost per shard, gap window,
    // state and alarm, plus 48 bytes per origin-set member.
    const auto state_bytes = [](const State& st) {
      return 160 + 48 * (st.reference.size() + st.observed.size());
    };
    std::uint64_t bytes = 256 + 16 * gaps_.size();
    for (const auto& [prefix, st] : states_) bytes += state_bytes(st);
    for (const core::MoasAlarm& a : alarms_) {
      bytes += 160 + 48 * (a.reference_list.size() + a.observed_list.size() +
                           a.offending_origins.size());
    }
    std::vector<std::pair<int, net::Prefix>> victims;
    for (const auto& [prefix, st] : states_) {
      if (!st.alarm) victims.emplace_back(st.last_day, prefix);
    }
    std::sort(victims.begin(), victims.end());
    for (const auto& [last_day, prefix] : victims) {
      if (bytes <= budget_) break;
      bytes -= state_bytes(states_.at(prefix));
      states_.erase(prefix);
      ++evicted_;
    }
  }

  std::uint64_t budget_;
  std::map<int, std::vector<StreamUpdate>> days_;
  std::set<std::uint64_t> window_;
  std::deque<std::uint64_t> window_order_;
  std::map<net::Prefix, State> states_;
  std::vector<chaos::GapWindow> gaps_;
  std::vector<core::MoasAlarm> alarms_;
  std::uint64_t malformed_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t parked_ = 0;
  std::uint64_t ttl_expired_ = 0;
};

/// One alarm as text, for failure messages.
std::string show(const core::MoasAlarm& a) {
  return a.to_string() + ' ' + core::to_string(a.state) + " at=" + std::to_string(a.at) +
         " settled=" + std::to_string(a.settled_at);
}

/// A seeded trace with churn that outlives the TTL, planned attacks and
/// short-lived fault cases, and the overrides that inject them.
struct Scenario {
  measure::SyntheticTrace trace;
  std::vector<OriginOverride> overrides;
  std::vector<AttackPlan> plans;
};

Scenario scenario(std::uint64_t seed, int days, double active, double faults_per_day) {
  util::Rng rng(seed);
  measure::TraceConfig config;
  config.days = days;
  config.active_start = active;
  config.active_end = active + 5.0;
  config.faults_per_day = faults_per_day;
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  Scenario s{measure::generate_trace(config, rng), {}, {}};
  s.overrides = plan_churn(s.trace, ChurnConfig{.seed = seed + 100, .share = 0.2,
                                                .min_active_days = 30});
  s.plans = plan_attacks(
      s.trace, AttackConfig{.seed = seed + 200, .attacks = 6, .duration_mean_days = 4.0},
      s.overrides);
  for (const AttackPlan& p : s.plans) s.overrides.push_back(p.inject);
  return s;
}

/// Hands `consume` the scenario's feed: its replay, through a FaultyFeed
/// with `faults` if given.
template <typename Consume>
void with_feed(const Scenario& s, const chaos::FeedFaultSchedule* faults, Consume&& consume) {
  TraceReplaySource source(s.trace, s.overrides);
  if (faults == nullptr) return consume(static_cast<UpdateFeed&>(source));
  FaultyFeed faulty(source, *faults);
  consume(static_cast<UpdateFeed&>(faulty));
}

/// Runs the model and a detector with `config` over the scenario's feed and
/// compares their alarm logs and counts. Returns the model, whose counts
/// show which paths the scenario took.
StreamModel expect_agreement(const Scenario& s, const StreamConfig& config,
                             const chaos::FeedFaultSchedule* faults, const std::string& what) {
  StreamModel model(config.shard.memory_budget_bytes);
  with_feed(s, faults, [&](UpdateFeed& feed) {
    while (auto u = feed.next()) model.deliver(*u);
  });
  model.finish();
  StreamDetector detector(config);
  with_feed(s, faults, [&](UpdateFeed& feed) { detector.run(feed); });

  EXPECT_EQ(detector.front_counters().late_updates, 0u) << what;
  EXPECT_EQ(detector.front_counters().malformed_rejected, model.malformed()) << what;
  EXPECT_EQ(detector.front_counters().duplicates_suppressed, model.duplicates()) << what;
  const obs::MetricsRegistry metrics = detector.metrics();
  EXPECT_EQ(metrics.counter("stream.evicted_prefixes"), model.evicted()) << what;
  EXPECT_EQ(metrics.counter("stream.alarms_parked"), model.parked()) << what;
  const std::vector<core::MoasAlarm> want = model.alarms();
  const std::vector<core::MoasAlarm> got = detector.merged_alarms();
  EXPECT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] == want[i]) continue;
    ADD_FAILURE() << what << " alarm " << i << "\n  detector " << show(got[i])
                  << "\n  model    " << show(want[i]);
    break;
  }
  return model;
}

StreamConfig config_with(std::size_t shards, std::size_t jobs) {
  StreamConfig config;
  config.shards = shards;
  config.jobs = jobs;
  config.flush_margin = 8;
  return config;
}

TEST(StreamModel, AgreesAcrossShardsAndJobs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Scenario s = scenario(seed, 90, 15.0, 1.0);
    for (std::size_t shards = 1; shards <= 8; ++shards) {
      for (std::size_t jobs = 1; jobs <= 4; ++jobs) {
        const StreamModel model =
            expect_agreement(s, config_with(shards, jobs), nullptr,
                             "seed=" + std::to_string(seed) + " shards=" +
                                 std::to_string(shards) + " jobs=" + std::to_string(jobs));
        // Attacks resolve and churn outlives the TTL.
        const auto alarms = model.alarms();
        EXPECT_TRUE(std::any_of(alarms.begin(), alarms.end(), [](const core::MoasAlarm& a) {
          return a.state == core::MoasAlarm::State::Resolved;
        }));
        EXPECT_GT(model.ttl_expired(), 0u);
      }
    }
  }
}

TEST(StreamModel, AgreesUnderFeedFaults) {
  // Gaps over attack onsets park alarms; duplicates, garbles and reorders
  // within the flush margin exercise the front end.
  const Scenario s = scenario(4, 120, 15.0, 1.0);
  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 43;
  fault_config.duplicate_prob = 0.03;
  fault_config.reorder_prob = 0.05;
  fault_config.reorder_max_skew = 8;
  fault_config.garble_prob = 0.01;
  chaos::FeedFaultSchedule faults = chaos::compile_feed_faults(fault_config);
  for (const AttackPlan& p : s.plans) {
    const int first = p.inject.first_day;
    const bool clear = std::none_of(faults.gaps.begin(), faults.gaps.end(), [&](const auto& g) {
      return g.first_day <= first + 1 && g.last_day >= first - 1;
    });
    if (clear) faults.gaps.push_back({first, first});
  }
  std::sort(faults.gaps.begin(), faults.gaps.end(),
            [](const chaos::GapWindow& a, const chaos::GapWindow& b) {
              return a.first_day < b.first_day;
            });
  for (const std::size_t shards : {1u, 3u, 8u}) {
    for (std::size_t jobs = 1; jobs <= 4; ++jobs) {
      const StreamModel model =
          expect_agreement(s, config_with(shards, jobs), &faults,
                           "shards=" + std::to_string(shards) + " jobs=" + std::to_string(jobs));
      EXPECT_GT(model.parked(), 0u);
      EXPECT_GT(model.duplicates(), 0u);
      EXPECT_GT(model.malformed(), 0u);
    }
  }
}

TEST(StreamModel, AgreesUnderAnEightKibBudget) {
  // One shard, so the per-shard budget is the model's whole budget. Fault
  // churn leaves cold states to evict; attacked prefixes hold alarms that
  // must survive eviction.
  const Scenario s = scenario(5, 90, 12.0, 6.0);
  for (std::size_t jobs = 1; jobs <= 4; ++jobs) {
    StreamConfig config = config_with(1, jobs);
    config.shard.memory_budget_bytes = 8 * 1024;
    config.shard.evict_idle_days = 5;
    const StreamModel model = expect_agreement(s, config, nullptr, "jobs=" + std::to_string(jobs));
    EXPECT_GT(model.evicted(), 0u);
    EXPECT_FALSE(model.alarms().empty());
  }
}

/// Delivers its source unchanged, and delivers every `every`th update
/// again once `distance` further updates have passed. With `every` above
/// `distance`, no other echo falls between an update and its echo.
class EchoFeed final : public UpdateFeed {
 public:
  EchoFeed(UpdateFeed& inner, std::uint64_t every, std::uint64_t distance)
      : inner_(&inner), every_(every), distance_(distance) {}

  std::optional<StreamUpdate> next() override {
    if (!echoes_.empty() && echoes_.front().first == passed_) {
      StreamUpdate u = echoes_.front().second;
      echoes_.pop_front();
      return u;
    }
    auto u = inner_->next();
    if (!u) return u;
    if (passed_ % every_ == 0) echoes_.emplace_back(passed_ + distance_ + 1, *u);
    ++passed_;
    return u;
  }

 private:
  UpdateFeed* inner_;
  std::uint64_t every_;
  std::uint64_t distance_;
  std::uint64_t passed_ = 0;
  std::deque<std::pair<std::uint64_t, StreamUpdate>> echoes_;
};

TEST(StreamModel, AgreesOnTheDedupWindowBound) {
  // Echoes kDupWindow - 1 admissions after the original are inside the
  // window and suppressed; echoes kDupWindow admissions after it are not.
  // The flush margin exceeds the feed, so every update, echoes included,
  // is processed with its own day's batch.
  constexpr std::uint64_t kEvery = kDupWindow + 512;
  const Scenario s = scenario(6, 200, 80.0, 0.0);
  for (const std::uint64_t distance : {kDupWindow - 1, kDupWindow}) {
    StreamModel model;
    TraceReplaySource model_source(s.trace, s.overrides);
    EchoFeed model_feed(model_source, kEvery, distance);
    std::uint64_t delivered = 0;
    while (auto u = model_feed.next()) {
      model.deliver(*u);
      ++delivered;
    }
    model.finish();
    ASSERT_GT(delivered, 3 * kDupWindow);

    StreamConfig config = config_with(4, 2);
    config.flush_margin = static_cast<int>(delivered);
    TraceReplaySource source(s.trace, s.overrides);
    EchoFeed feed(source, kEvery, distance);
    StreamDetector detector(config);
    detector.run(feed);
    const std::uint64_t echoes = delivered - source.emitted();
    ASSERT_GT(echoes, 0u);
    EXPECT_EQ(model.duplicates(), distance < kDupWindow ? echoes : 0u);
    EXPECT_EQ(detector.front_counters().duplicates_suppressed, model.duplicates())
        << "distance=" << distance;
    EXPECT_EQ(detector.merged_alarms(), model.alarms()) << "distance=" << distance;
  }
}

}  // namespace
}  // namespace moas::stream
