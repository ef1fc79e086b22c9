// The fault-schedule compiler: determinism, well-formedness, and the
// all-clear-by-horizon guarantee the invariant checker relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "moas/chaos/schedule.h"

namespace moas::chaos {
namespace {

std::vector<std::pair<bgp::Asn, bgp::Asn>> test_links() {
  return {{1, 2}, {1, 3}, {2, 4}, {3, 4}};
}

std::vector<bgp::Asn> test_asns() { return {1, 2, 3, 4}; }

ScheduleConfig busy_config(std::uint64_t seed) {
  ScheduleConfig config;
  config.seed = seed;
  config.horizon = 300.0;
  config.flaps_per_link = 3.0;
  config.session_resets_per_link = 2.0;
  config.crashes_per_router = 1.0;
  return config;
}

TEST(ChaosSchedule, SameSeedCompilesIdentically) {
  const FaultSchedule a = compile_schedule(busy_config(7), test_links(), test_asns());
  const FaultSchedule b = compile_schedule(busy_config(7), test_links(), test_asns());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_FALSE(a.events.empty());
}

TEST(ChaosSchedule, DifferentSeedsDiffer) {
  const FaultSchedule a = compile_schedule(busy_config(7), test_links(), test_asns());
  const FaultSchedule b = compile_schedule(busy_config(8), test_links(), test_asns());
  EXPECT_NE(a.to_string(), b.to_string());
}

TEST(ChaosSchedule, EventsAreSortedAndInsideHorizon) {
  const ScheduleConfig config = busy_config(11);
  const FaultSchedule schedule = compile_schedule(config, test_links(), test_asns());
  for (std::size_t i = 1; i < schedule.events.size(); ++i) {
    EXPECT_LE(schedule.events[i - 1].at, schedule.events[i].at);
  }
  for (const FaultEvent& event : schedule.events) {
    EXPECT_GE(event.at, 0.0);
    EXPECT_LT(event.at, config.horizon);
  }
}

TEST(ChaosSchedule, DownUpAndCrashRestartAlternateAndClose) {
  // Per link: link-down and link-up strictly alternate, starting with down
  // and ending with up (everything recovers inside the horizon). Same for
  // crash/restart per router.
  const FaultSchedule schedule = compile_schedule(busy_config(13), test_links(), test_asns());
  std::map<std::pair<bgp::Asn, bgp::Asn>, int> link_depth;
  std::map<bgp::Asn, int> crash_depth;
  for (const FaultEvent& event : schedule.events) {
    int& depth = link_depth[std::make_pair(event.a, event.b)];
    switch (event.kind) {
      case FaultKind::LinkDown:
        EXPECT_EQ(depth, 0) << event.to_string();
        depth = 1;
        break;
      case FaultKind::LinkUp:
        EXPECT_EQ(depth, 1) << event.to_string();
        depth = 0;
        break;
      case FaultKind::RouterCrash:
        EXPECT_EQ(crash_depth[event.a], 0) << event.to_string();
        crash_depth[event.a] = 1;
        break;
      case FaultKind::RouterRestart:
        EXPECT_EQ(crash_depth[event.a], 1) << event.to_string();
        crash_depth[event.a] = 0;
        break;
      case FaultKind::SessionReset:
        break;  // self-recovering; no pairing to track
      case FaultKind::AttrCorrupt:
        break;  // damages one announcement; no pairing to track
    }
  }
  for (const auto& [link, depth] : link_depth) EXPECT_EQ(depth, 0);
  for (const auto& [asn, depth] : crash_depth) EXPECT_EQ(depth, 0);
}

TEST(ChaosSchedule, ZeroRatesCompileEmpty) {
  ScheduleConfig config;
  config.flaps_per_link = 0.0;
  config.session_resets_per_link = 0.0;
  config.crashes_per_router = 0.0;
  const FaultSchedule schedule = compile_schedule(config, test_links(), test_asns());
  EXPECT_TRUE(schedule.events.empty());
  EXPECT_TRUE(schedule.empty());
}

TEST(ChaosSchedule, MessageFaultsCountAsNonEmpty) {
  ScheduleConfig config;
  config.msg_drop = 0.1;
  const FaultSchedule schedule = compile_schedule(config, test_links(), test_asns());
  EXPECT_TRUE(schedule.events.empty());
  EXPECT_FALSE(schedule.empty());
  EXPECT_TRUE(config.has_message_faults());
}

TEST(ChaosSchedule, ConfigValidation) {
  ScheduleConfig bad;
  bad.horizon = 0.0;
  EXPECT_THROW(compile_schedule(bad, test_links(), test_asns()), std::invalid_argument);
  bad = ScheduleConfig();
  bad.msg_drop = 1.5;
  EXPECT_THROW(compile_schedule(bad, test_links(), test_asns()), std::invalid_argument);
}

TEST(ChaosSchedule, AttrCorruptCompilesDeterministicallyAndDirected) {
  ScheduleConfig config;
  config.seed = 21;
  config.attr_corruptions_per_link = 3.0;
  const FaultSchedule a = compile_schedule(config, test_links(), test_asns());
  const FaultSchedule b = compile_schedule(config, test_links(), test_asns());
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.events.empty());
  EXPECT_FALSE(a.empty());
  for (const FaultEvent& event : a.events) {
    EXPECT_EQ(event.kind, FaultKind::AttrCorrupt);
    // Directed along a real peering: {a,b} must be one of the input links.
    const auto key = std::minmax(event.a, event.b);
    bool known = false;
    for (const auto& [x, y] : test_links()) known |= std::minmax(x, y) == key;
    EXPECT_TRUE(known) << event.to_string();
  }
}

TEST(ChaosSchedule, LogFormatIsStable) {
  FaultEvent event{12.5, FaultKind::LinkDown, 3, 7};
  EXPECT_EQ(event.to_string(), "t=12.500000 link-down 3--7");
  FaultEvent crash{1.25, FaultKind::RouterCrash, 9, 0};
  EXPECT_EQ(crash.to_string(), "t=1.250000 router-crash 9");
}

}  // namespace
}  // namespace moas::chaos
