// The harness's arithmetic rules: the percentile sample-count rule, self
// time from nested spans, ratios that carry their base, and the failed
// ratio's denominators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "spans.h"
#include "stats.h"

using namespace perfbench;

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(19, 0.5), 9u);
  EXPECT_FALSE(percentile(ramp(99), 0.9).has_value());
  EXPECT_TRUE(percentile(ramp(100), 0.9).has_value());
  EXPECT_FALSE(percentile(ramp(19), 0.5).has_value());
  EXPECT_TRUE(percentile(ramp(20), 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  // One sample never yields a percentile, so p50 == p90 of a single
  // request cannot be emitted by accident.
  EXPECT_FALSE(percentile({6560.0}, 0.5).has_value());
}

TEST(Percentile, InterpolatesLinearlyOnSortedSamples) {
  std::vector<double> samples = ramp(101);  // 1..101, shuffled order below
  std::reverse(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(*percentile(samples, 0.5), 51.0);
  EXPECT_DOUBLE_EQ(*percentile(samples, 0.9), 91.0);
  EXPECT_DOUBLE_EQ(*percentile(ramp(20), 0.5), 10.5);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  SpanLog log;
  const auto run = log.name_id("run");
  const auto flush = log.name_id("flush");
  const auto checkpoint = log.name_id("checkpoint");
  const std::size_t root = log.add(run, -1, 0, 100);
  const std::size_t f = log.add(flush, static_cast<std::int64_t>(root), 10, 50);
  log.add(checkpoint, static_cast<std::int64_t>(f), 20, 35);
  log.add(flush, static_cast<std::int64_t>(root), 60, 70);
  const auto self = self_times(log.spans());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 40 - 15);
  EXPECT_EQ(self[2], 15);
  EXPECT_EQ(self[3], 10);

  const auto layers = layer_times(log, root);
  EXPECT_EQ(layers.at("flush").count, 2u);
  EXPECT_EQ(layers.at("flush").total_ns, 50);
  EXPECT_EQ(layers.at("flush").self_ns, 35);
  std::int64_t sum = 0;
  for (const auto& [name, layer] : layers) sum += layer.self_ns;
  EXPECT_EQ(sum, log.spans()[root].duration_ns());  // self times partition the root
}

TEST(Spans, ConcurrentChildrenOnAnotherTrackAreNotSubtracted) {
  SpanLog log;
  const std::size_t root = log.add(log.name_id("run"), -1, 0, 100);
  const std::size_t drain = log.add(log.name_id("drain"), static_cast<std::int64_t>(root), 0, 80);
  // Two workers, overlapping each other and the drain.
  log.add(log.name_id("task"), static_cast<std::int64_t>(drain), 0, 70, 0, 1);
  log.add(log.name_id("task"), static_cast<std::int64_t>(drain), 5, 80, 1, 1);
  const auto self = self_times(log.spans());
  EXPECT_EQ(self[drain], 80);
  EXPECT_EQ(self[root], 20);
  const auto layers = layer_times(log, root);
  EXPECT_FALSE(layers.contains("task"));  // other track: outside the partition
  EXPECT_EQ(layers.at("run").self_ns + layers.at("drain").self_ns, 100);
}

TEST(Spans, SubtreeStopsAtTheRoot) {
  SpanLog log;
  const std::size_t setup = log.add(log.name_id("setup"), -1, 0, 10);
  log.add(log.name_id("topo"), static_cast<std::int64_t>(setup), 0, 9);
  const std::size_t run = log.add(log.name_id("run"), -1, 10, 30);
  log.add(log.name_id("core"), static_cast<std::int64_t>(run), 12, 20);
  const auto layers = layer_times(log, run);
  EXPECT_FALSE(layers.contains("topo"));
  EXPECT_EQ(layers.at("core").self_ns, 8);
  EXPECT_EQ(layers.at("run").self_ns, 12);
}

TEST(Ratio, CarriesItsBase) {
  const Ratio r = batch_failed_ratio(2, 540, "runs not quiesced", "runs");
  EXPECT_DOUBLE_EQ(r.value(), 2.0 / 540.0);
  const std::string text = r.describe();
  EXPECT_NE(text.find("runs not quiesced"), std::string::npos);
  EXPECT_NE(text.find("/ 540 runs"), std::string::npos);
  EXPECT_DOUBLE_EQ(batch_failed_ratio(0, 0, "a", "b").value(), 0.0);  // empty base, not NaN
}

TEST(Ratio, StreamFailedRatioCountsShedLateAndMalformedOverDelivered) {
  const Ratio r = stream_failed_ratio(16'540, 3, 2, 1'310'575);
  EXPECT_DOUBLE_EQ(r.num, 16'545.0);
  EXPECT_DOUBLE_EQ(r.den, 1'310'575.0);
  EXPECT_DOUBLE_EQ(r.value(), 16'545.0 / 1'310'575.0);
  EXPECT_EQ(r.den_label, "delivered updates");
  EXPECT_EQ(stream_failed_ratio(0, 0, 0, 10).value(), 0.0);
}

TEST(Fingerprint, SeparatesFieldsAndIsStable) {
  Fingerprint a, b, c;
  a.add("ab");
  a.add("c");
  b.add("a");
  b.add("bc");
  EXPECT_NE(a.hex(), b.hex());
  c.add("ab");
  c.add("c");
  EXPECT_EQ(a.hex(), c.hex());
  EXPECT_EQ(a.hex().size(), 16u);
  // Doubles hash by every digit: equal values agree, neighbours differ.
  Fingerprint d, e, f;
  d.add(0.1 + 0.2);
  e.add(0.30000000000000004);
  f.add(std::nextafter(0.1 + 0.2, 1.0));
  EXPECT_EQ(d.hex(), e.hex());
  EXPECT_NE(d.hex(), f.hex());
}
