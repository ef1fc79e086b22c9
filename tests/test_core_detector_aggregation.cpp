// Detector behavior on aggregated routes (AS_SET origins — the paper's
// footnote 1 meets footnote 3): an aggregate's effective MOAS list is its
// origin-candidate set unless an explicit list is attached. The aggregates
// are built by hand the way RFC 4271 §9.2.2.2 aggregation shapes them: the
// components' common leading ASes as an AS_SEQUENCE, the rest as a
// trailing AS_SET.
#include <gtest/gtest.h>

#include "moas/core/detector.h"

namespace moas::core {
namespace {

const net::Prefix kBlock = *net::Prefix::parse("10.0.0.0/8");

class FakeContext final : public bgp::RouterContext {
 public:
  bgp::Asn self() const override { return 7; }
  sim::Time current_time() const override { return 0.0; }
  std::size_t invalidate_origins(const net::Prefix&, const AsnSet& origins) override {
    purged = origins;
    return 1;
  }
  AsnSet purged;
};

bgp::Route component(const char* prefix, std::vector<bgp::Asn> path) {
  bgp::Route r;
  r.prefix = *net::Prefix::parse(prefix);
  r.attrs.path = bgp::AsPath(std::move(path));
  return r;
}

/// The aggregate of kBlock whose components share the leading `head` and
/// originate from `origins`: path "head {origins}".
bgp::Route aggregate(const std::vector<bgp::Asn>& head, AsnSet origins) {
  bgp::Route r;
  r.prefix = kBlock;
  r.attrs.path.append_sequence(head);
  r.attrs.path.append_set(std::move(origins));
  return r;
}

struct Harness {
  std::shared_ptr<AlarmLog> alarms = std::make_shared<AlarmLog>();
  std::shared_ptr<PrefixOriginDb> truth = std::make_shared<PrefixOriginDb>();
  FakeContext ctx;
  MoasDetector detector{alarms, std::make_shared<OracleResolver>(truth)};
};

TEST(DetectorAggregation, ConsistentAggregatesStaySilent) {
  // Two vantage paths to the same aggregate with the same origin set.
  Harness h;
  EXPECT_TRUE(h.detector.accept(aggregate({701}, {2026, 4006}), 701, h.ctx));
  EXPECT_TRUE(h.detector.accept(aggregate({7018}, {2026, 4006}), 7018, h.ctx));
  EXPECT_EQ(h.alarms->size(), 0u);
  EXPECT_EQ(h.detector.reference_list(kBlock), (AsnSet{2026, 4006}));
}

TEST(DetectorAggregation, ForgedExtraOriginInAggregateDetected) {
  Harness h;
  h.truth->set(kBlock, {2026, 4006});
  EXPECT_TRUE(h.detector.accept(aggregate({701}, {2026, 4006}), 701, h.ctx));

  // A faulty AS de-aggregates/re-aggregates and injects itself as an
  // origin (the April 1997 "AS 7007-style" de-aggregation fault): both
  // components now end at 666, so the re-aggregate's path is just "666".
  EXPECT_FALSE(h.detector.accept(component("10.0.0.0/8", {666}), 9, h.ctx));
  EXPECT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.detector.banned_origins(kBlock), AsnSet{666});
}

TEST(DetectorAggregation, AggregateVsComponentConflictResolved) {
  // The aggregate claims origins {4006, 2026}; a component-level
  // announcement for the same block claims only {4006}: a mismatch that
  // resolution clears without banning anyone.
  Harness h;
  h.truth->set(kBlock, {2026, 4006});
  EXPECT_TRUE(h.detector.accept(aggregate({701}, {2026, 4006}), 701, h.ctx));
  EXPECT_TRUE(h.detector.accept(component("10.0.0.0/8", {9, 4006}), 9, h.ctx));
  EXPECT_EQ(h.alarms->size(), 1u);  // lists differ as sets -> alarm
  EXPECT_TRUE(h.detector.banned_origins(kBlock).empty());
  EXPECT_EQ(h.detector.reference_list(kBlock), (AsnSet{2026, 4006}));
}

TEST(DetectorAggregation, ExplicitListOverridesAggregateOrigins) {
  // An aggregate carrying an explicit MOAS list is judged by the list, not
  // by its AS_SET members.
  Harness h;
  bgp::Route agg = aggregate({701}, {2026, 4006});
  attach_moas_list(agg.attrs, {2026, 4006});
  EXPECT_TRUE(h.detector.accept(agg, 701, h.ctx));
  EXPECT_EQ(h.detector.reference_list(kBlock), (AsnSet{2026, 4006}));
  // Another announcement with the matching explicit list: consistent.
  bgp::Route single = component("10.0.0.0/8", {9, 4006});
  attach_moas_list(single.attrs, {2026, 4006});
  EXPECT_TRUE(h.detector.accept(single, 9, h.ctx));
  EXPECT_EQ(h.alarms->size(), 0u);
}

TEST(DetectorAggregation, OriginInListCheckCoversAsSets) {
  // An aggregate whose explicit list misses one of its AS_SET origin
  // candidates is self-inconsistent.
  Harness h;
  bgp::Route agg = aggregate({701}, {2026, 4006});
  attach_moas_list(agg.attrs, {4006});  // 2026 missing
  EXPECT_FALSE(h.detector.accept(agg, 701, h.ctx));
  ASSERT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.alarms->alarms()[0].cause, MoasAlarm::Cause::OriginNotInList);
}

}  // namespace
}  // namespace moas::core
