#include "moas/chaos/registry_outage.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace moas::chaos {
namespace {

RegistryOutageConfig busy_config() {
  RegistryOutageConfig config;
  config.seed = 7;
  config.horizon = 600.0;
  config.outages = 4.0;
  config.outage_mean = 15.0;
  config.spikes = 3.0;
  config.spike_mean = 20.0;
  config.spike_factor = 8.0;
  return config;
}

TEST(RegistryOutage, CompileIsDeterministic) {
  const auto a = compile_registry_outages(busy_config());
  const auto b = compile_registry_outages(busy_config());
  EXPECT_EQ(a.outages, b.outages);
  EXPECT_EQ(a.spikes, b.spikes);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(RegistryOutage, DifferentSeedsDiffer) {
  auto config = busy_config();
  const auto a = compile_registry_outages(config);
  config.seed = 8;
  const auto b = compile_registry_outages(config);
  EXPECT_NE(a.to_string(), b.to_string());
}

TEST(RegistryOutage, EmptyConfigCompilesToNothing) {
  const auto schedule = compile_registry_outages(RegistryOutageConfig{});
  EXPECT_TRUE(schedule.empty());
  EXPECT_FALSE(schedule.down(100.0));
  EXPECT_DOUBLE_EQ(schedule.latency_factor(100.0), 1.0);
  EXPECT_TRUE(schedule.to_string().empty());
}

TEST(RegistryOutage, WindowsStayInsideHorizonAndSorted) {
  const auto schedule = compile_registry_outages(busy_config());
  const auto check = [&](const std::vector<RegistryOutageSchedule::Window>& windows) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      EXPECT_GE(windows[i].start, 0.0);
      EXPECT_LT(windows[i].start, busy_config().horizon);
      EXPECT_LE(windows[i].end, busy_config().horizon);
      EXPECT_LT(windows[i].start, windows[i].end);
      if (i > 0) {
        EXPECT_LE(windows[i - 1].start, windows[i].start);
      }
    }
  };
  check(schedule.outages);
  check(schedule.spikes);
}

TEST(RegistryOutage, DownRespectsHalfOpenWindows) {
  RegistryOutageSchedule schedule;
  schedule.outages.push_back({10.0, 20.0, 1.0});
  EXPECT_FALSE(schedule.down(9.999));
  EXPECT_TRUE(schedule.down(10.0));
  EXPECT_TRUE(schedule.down(19.999));
  EXPECT_FALSE(schedule.down(20.0)) << "end is exclusive";
}

TEST(RegistryOutage, LatencyFactorMultipliesOverlappingSpikes) {
  RegistryOutageSchedule schedule;
  schedule.spikes.push_back({0.0, 10.0, 4.0});
  schedule.spikes.push_back({5.0, 15.0, 3.0});
  EXPECT_DOUBLE_EQ(schedule.latency_factor(2.0), 4.0);
  EXPECT_DOUBLE_EQ(schedule.latency_factor(7.0), 12.0) << "overlap compounds";
  EXPECT_DOUBLE_EQ(schedule.latency_factor(12.0), 3.0);
  EXPECT_DOUBLE_EQ(schedule.latency_factor(20.0), 1.0);
}

TEST(RegistryOutage, ReplayLogMentionsEveryWindow) {
  const auto schedule = compile_registry_outages(busy_config());
  const std::string log = schedule.to_string();
  std::size_t lines = 0;
  for (char c : log) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, schedule.outages.size() + schedule.spikes.size());
  EXPECT_NE(log.find("registry-outage"), std::string::npos);
  EXPECT_NE(log.find("registry-latency-spike"), std::string::npos);
}

TEST(RegistryOutage, Validation) {
  auto config = busy_config();
  config.horizon = 0.0;
  EXPECT_THROW(compile_registry_outages(config), std::invalid_argument);
  config = busy_config();
  config.outage_mean = 0.0;
  EXPECT_THROW(compile_registry_outages(config), std::invalid_argument);
  config = busy_config();
  config.spike_factor = 0.5;
  EXPECT_THROW(compile_registry_outages(config), std::invalid_argument);
}

}  // namespace
}  // namespace moas::chaos
