// Trace bus unit tests: level gating (the disabled sink must cost nothing
// and record nothing), clock stamping, the JSONL event encoding, and the
// trace_wants() fast path emission sites rely on.
#include "moas/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "moas/obs/event.h"
#include "moas/sim/event_queue.h"

namespace moas::obs {
namespace {

net::Prefix test_prefix() { return *net::Prefix::parse("10.1.0.0/16"); }

TEST(TraceBus, OffLevelWantsNothingAndSummaryOrdersBelowFull) {
  const TraceBus off(TraceLevel::Off);
  EXPECT_FALSE(off.wants(TraceLevel::Summary));
  EXPECT_FALSE(off.wants(TraceLevel::Full));

  const TraceBus summary(TraceLevel::Summary);
  EXPECT_TRUE(summary.wants(TraceLevel::Summary));
  EXPECT_FALSE(summary.wants(TraceLevel::Full));

  const TraceBus full(TraceLevel::Full);
  EXPECT_TRUE(full.wants(TraceLevel::Summary));
  EXPECT_TRUE(full.wants(TraceLevel::Full));
}

TEST(TraceBus, TraceWantsHandlesNullAndOffBuses) {
  EXPECT_FALSE(trace_wants(nullptr, TraceLevel::Summary));
  TraceBus off(TraceLevel::Off);
  EXPECT_FALSE(trace_wants(&off, TraceLevel::Summary));
  TraceBus summary(TraceLevel::Summary);
  // With the bus compiled out there is nothing to want, ever.
  EXPECT_EQ(trace_wants(&summary, TraceLevel::Summary), kTraceCompiledIn);
}

TEST(TraceBus, DisabledSinkStaysEmptyUnderTheGatedIdiom) {
  // The emission-site idiom: check trace_wants, only then build + emit.
  TraceBus bus(TraceLevel::Off);
  if (trace_wants(&bus, TraceLevel::Summary)) {
    bus.emit(TraceEvent(EventKind::AlarmRaised, 1));
  }
  EXPECT_TRUE(bus.empty());
  EXPECT_EQ(bus.size(), 0u);
}

TEST(TraceBus, StampsEventsFromTheAttachedClock) {
  sim::EventQueue clock;
  TraceBus bus(TraceLevel::Summary, &clock);
  clock.schedule_at(2.5, [&] { bus.emit(TraceEvent(EventKind::AlarmRaised, 9)); });
  clock.schedule_at(4.0, [&] { bus.emit(TraceEvent(EventKind::AlarmResolved, 9)); });
  clock.run();
  ASSERT_EQ(bus.size(), 2u);
  EXPECT_EQ(bus.events()[0].at, 2.5);
  EXPECT_EQ(bus.events()[1].at, 4.0);
}

TEST(TraceBus, TakeMovesTheStreamOutAndClearEmpties) {
  TraceBus bus(TraceLevel::Summary);
  bus.emit(TraceEvent(EventKind::FaultInjected, 3));
  const std::vector<TraceEvent> taken = bus.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(bus.empty());
  bus.emit(TraceEvent(EventKind::FaultInjected, 4));
  bus.clear();
  EXPECT_TRUE(bus.empty());
}

TEST(TraceEvent, JsonOmitsUnsetOptionalFields) {
  TraceEvent event(EventKind::AlarmRaised, 42);
  event.at = 1.5;
  EXPECT_EQ(event.to_json(), "{\"t\":1.500000000,\"kind\":\"alarm-raised\",\"actor\":42}");
}

TEST(TraceEvent, JsonIncludesEveryPopulatedField) {
  TraceEvent event = TraceEvent(EventKind::RoutePreferred, 7, 8)
                         .with_prefix(test_prefix())
                         .with_values(-1, 9)
                         .with_note("cause");
  event.at = 0.25;
  EXPECT_EQ(event.to_json(),
            "{\"t\":0.250000000,\"kind\":\"route-preferred\",\"actor\":7,\"peer\":8,"
            "\"prefix\":\"10.1.0.0/16\",\"v\":-1,\"v2\":9,\"note\":\"cause\"}");
}

TEST(TraceEvent, JsonEscapesNoteText) {
  const TraceEvent event =
      TraceEvent(EventKind::MessageFault, 1).with_note("a\"b\\c\nd\te\x01" "f");
  const std::string json = event.to_json();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
}

TEST(TraceEvent, JsonlWriterEmitsOneLinePerEvent) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent(EventKind::UpdateSent, 1, 2));
  events.push_back(TraceEvent(EventKind::UpdateReceived, 2, 1));
  std::ostringstream os;
  write_trace_jsonl(os, events);
  const std::string text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"kind\":\"update-sent\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"update-received\""), std::string::npos);
}

TEST(TraceEvent, EveryKindHasAStableName) {
  // The kind strings are the JSONL schema — renaming one is a breaking
  // change to every trace consumer, so pin them.
  EXPECT_STREQ(to_string(EventKind::UpdateSent), "update-sent");
  EXPECT_STREQ(to_string(EventKind::UpdateReceived), "update-received");
  EXPECT_STREQ(to_string(EventKind::WithdrawReceived), "withdraw-received");
  EXPECT_STREQ(to_string(EventKind::RoutePreferred), "route-preferred");
  EXPECT_STREQ(to_string(EventKind::RouteDepreferred), "route-depreferred");
  EXPECT_STREQ(to_string(EventKind::AlarmRaised), "alarm-raised");
  EXPECT_STREQ(to_string(EventKind::AlarmResolved), "alarm-resolved");
  EXPECT_STREQ(to_string(EventKind::AlarmDropped), "alarm-dropped");
  EXPECT_STREQ(to_string(EventKind::FaultInjected), "fault-injected");
  EXPECT_STREQ(to_string(EventKind::MessageFault), "message-fault");
  EXPECT_STREQ(to_string(EventKind::ErrorDegraded), "error-degraded");
  EXPECT_STREQ(to_string(EventKind::ErrorWithdraw), "error-withdraw");
  EXPECT_STREQ(to_string(EventKind::AttackInjected), "attack-injected");
  EXPECT_STREQ(to_string(EventKind::ResolverRequest), "resolver-request");
  EXPECT_STREQ(to_string(EventKind::ResolverTimeout), "resolver-timeout");
  EXPECT_STREQ(to_string(EventKind::ResolverRetry), "resolver-retry");
  EXPECT_STREQ(to_string(EventKind::ResolverBreaker), "resolver-breaker");
  EXPECT_STREQ(to_string(EventKind::ResolverFallback), "resolver-fallback");
  EXPECT_STREQ(to_string(EventKind::FeedGap), "feed-gap");
  EXPECT_STREQ(to_string(EventKind::UpdatesShed), "updates-shed");
  EXPECT_STREQ(to_string(EventKind::StateEvicted), "state-evicted");
}

}  // namespace
}  // namespace moas::obs
