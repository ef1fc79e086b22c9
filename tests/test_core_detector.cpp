#include "moas/core/detector.h"

#include <gtest/gtest.h>

namespace moas::core {
namespace {

const net::Prefix kPrefix = *net::Prefix::parse("135.38.0.0/16");

/// Minimal RouterContext double recording invalidation requests.
class FakeContext final : public bgp::RouterContext {
 public:
  explicit FakeContext(bgp::Asn self = 77) : self_(self) {}

  bgp::Asn self() const override { return self_; }
  sim::Time current_time() const override { return 12.5; }
  std::size_t invalidate_origins(const net::Prefix& prefix,
                                 const AsnSet& false_origins) override {
    last_prefix = prefix;
    last_false_origins = false_origins;
    ++invalidations;
    return purge_result;
  }

  AsnSet accepted_origins(const net::Prefix& /*prefix*/) const override {
    return rib_origins;
  }

  net::Prefix last_prefix;
  AsnSet last_false_origins;
  int invalidations = 0;
  std::size_t purge_result = 1;
  AsnSet rib_origins;  // what accepted_origins reports (the fake Adj-RIB-In)

 private:
  bgp::Asn self_;
};

bgp::Route route_from(std::vector<bgp::Asn> path, const AsnSet& list = {}) {
  bgp::Route r;
  r.prefix = kPrefix;
  r.attrs.path = bgp::AsPath(std::move(path));
  if (!list.empty()) r.attrs.communities = encode_moas_list(list);
  return r;
}

struct Harness {
  std::shared_ptr<AlarmLog> alarms = std::make_shared<AlarmLog>();
  std::shared_ptr<PrefixOriginDb> truth = std::make_shared<PrefixOriginDb>();
  std::shared_ptr<OriginResolver> resolver;
  FakeContext ctx;

  MoasDetector make(bool with_resolver = true) {
    if (with_resolver) resolver = std::make_shared<OracleResolver>(truth);
    return MoasDetector(alarms, with_resolver ? resolver : nullptr);
  }
};

TEST(MoasDetector, FirstAnnouncementAccepted) {
  Harness h;
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  EXPECT_EQ(h.alarms->size(), 0u);
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{1});
}

TEST(MoasDetector, ConsistentListsStaySilent) {
  Harness h;
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}, {1, 2}), 9, h.ctx));
  EXPECT_TRUE(detector.accept(route_from({8, 2}, {1, 2}), 8, h.ctx));
  EXPECT_EQ(h.alarms->size(), 0u);
  EXPECT_EQ(detector.stats().alarms_raised, 0u);
}

TEST(MoasDetector, MismatchRaisesAlarmAndRejectsFalseOrigin) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  // AS 52 falsely originates (implicit list {52}).
  EXPECT_FALSE(detector.accept(route_from({52}), 52, h.ctx));
  EXPECT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.alarms->alarms()[0].cause, MoasAlarm::Cause::ListMismatch);
  EXPECT_EQ(h.alarms->alarms()[0].offending_origins, AsnSet{52});
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
  EXPECT_EQ(detector.stats().rejections, 1u);
}

TEST(MoasDetector, AlarmCarriesObserverAndTime) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  detector.accept(route_from({9, 1}), 9, h.ctx);
  detector.accept(route_from({52}), 52, h.ctx);
  ASSERT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.alarms->alarms()[0].observer, 77u);
  EXPECT_DOUBLE_EQ(h.alarms->alarms()[0].at, 12.5);
}

TEST(MoasDetector, FalseRouteArrivingFirstIsPurgedLater) {
  // The attacker's route arrives before the valid one; the conflict is
  // detected on the valid arrival and the installed false route purged.
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({52}), 52, h.ctx));  // no conflict yet
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));  // valid, triggers alarm
  EXPECT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.ctx.invalidations, 1);
  EXPECT_EQ(h.ctx.last_false_origins, AsnSet{52});
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{1});
  // The banned origin is refused on sight from now on.
  EXPECT_FALSE(detector.accept(route_from({8, 52}), 8, h.ctx));
}

TEST(MoasDetector, AugmentedForgedListDetected) {
  // "Although AS 3 could attach its own MOAS list that includes AS 1, AS 2,
  //  and AS 3, this list would not be in agreement..."
  Harness h;
  h.truth->set(kPrefix, {1, 2});
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}, {1, 2}), 9, h.ctx));
  EXPECT_FALSE(detector.accept(route_from({3}, {1, 2, 3}), 3, h.ctx));
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{3});
}

TEST(MoasDetector, OriginNotInListRejectedOnItsFace) {
  // A forged list that omits the route's own origin is self-inconsistent.
  Harness h;
  auto detector = h.make();
  EXPECT_FALSE(detector.accept(route_from({3}, {1, 2}), 3, h.ctx));
  ASSERT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(h.alarms->alarms()[0].cause, MoasAlarm::Cause::OriginNotInList);
}

TEST(MoasDetector, StrippedListRaisesFalseAlarmButAccepts) {
  // Section 4.3: a router dropped the communities; the origin-only implicit
  // list conflicts with the full list, but resolution shows both origins
  // are valid, so nothing is rejected.
  Harness h;
  h.truth->set(kPrefix, {1, 2});
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}, {1, 2}), 9, h.ctx));
  EXPECT_TRUE(detector.accept(route_from({8, 2}), 8, h.ctx));  // list stripped
  EXPECT_EQ(h.alarms->size(), 1u);  // alarm fired...
  EXPECT_EQ(detector.stats().rejections, 0u);  // ...but nothing rejected
  EXPECT_TRUE(detector.banned_origins(kPrefix).empty());
}

TEST(MoasDetector, UnresolvedConflictAcceptsLikePlainBgp) {
  Harness h;
  auto detector = h.make(/*with_resolver=*/false);
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  EXPECT_TRUE(detector.accept(route_from({52}), 52, h.ctx));  // conflict, no resolver
  EXPECT_EQ(h.alarms->size(), 1u);
  EXPECT_EQ(detector.stats().resolutions_failed, 1u);
  EXPECT_EQ(detector.stats().rejections, 0u);
  // The reference list is not overwritten by the unresolved challenger.
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{1});
}

TEST(MoasDetector, UnregisteredPrefixResolvesToFailure) {
  Harness h;  // truth DB left empty
  auto detector = h.make();
  detector.accept(route_from({9, 1}), 9, h.ctx);
  EXPECT_TRUE(detector.accept(route_from({52}), 52, h.ctx));
  EXPECT_EQ(detector.stats().resolutions_failed, 1u);
}

TEST(MoasDetector, TracksPrefixesIndependently) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  bgp::Route other = route_from({5});
  other.prefix = *net::Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  EXPECT_TRUE(detector.accept(other, 5, h.ctx));
  EXPECT_EQ(h.alarms->size(), 0u);
  EXPECT_EQ(detector.reference_list(other.prefix), AsnSet{5});
}

TEST(MoasDetector, ValidListWrongOriginBansAttackerNotVictims) {
  // Attacker forges exactly the valid list but originates itself; the
  // self-consistency check fires, and the valid origins are never banned.
  Harness h;
  h.truth->set(kPrefix, {1, 2});
  auto detector = h.make();
  EXPECT_FALSE(detector.accept(route_from({52}, {1, 2}), 52, h.ctx));
  EXPECT_TRUE(detector.accept(route_from({9, 1}, {1, 2}), 9, h.ctx));
  EXPECT_TRUE(detector.accept(route_from({8, 2}, {1, 2}), 8, h.ctx));
}

TEST(MoasDetector, ErrorWithdrawDropsEvidenceAndRebuildsReference) {
  Harness h;
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}, {1, 2}), 9, h.ctx));
  EXPECT_TRUE(detector.accept(route_from({8, 2}, {1, 2}), 8, h.ctx));
  ASSERT_EQ(detector.reference_list(kPrefix), (AsnSet{1, 2}));

  // One supporter's announcement arrived damaged (RFC 7606 treat-as-
  // withdraw): the other still backs the reference, so nothing changes.
  detector.on_error_withdraw(kPrefix, 9, h.ctx);
  EXPECT_EQ(detector.reference_list(kPrefix), (AsnSet{1, 2}));

  // The last supporter goes too: the reference is rebuilt from what
  // survived in the Adj-RIB-In — never from the damaged message.
  h.ctx.rib_origins = {1};
  detector.on_error_withdraw(kPrefix, 8, h.ctx);
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{1});
}

TEST(MoasDetector, ErrorWithdrawKeepsBansAndForgetsEmptyState) {
  Harness h;
  h.truth->set(kPrefix, {1});
  auto detector = h.make();
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  EXPECT_FALSE(detector.accept(route_from({52}), 52, h.ctx));
  ASSERT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));  // 9 supports again

  // Losing the supporting evidence must not unban the attacker.
  detector.on_error_withdraw(kPrefix, 9, h.ctx);
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
  EXPECT_FALSE(detector.accept(route_from({8, 52}), 8, h.ctx));

  // A prefix with no reference, no bans, and no supporters left is
  // forgotten entirely; the next announcement starts a fresh adoption.
  Harness h2;
  auto fresh = h2.make();
  EXPECT_TRUE(fresh.accept(route_from({9, 1}, {1}), 9, h2.ctx));
  fresh.on_error_withdraw(kPrefix, 9, h2.ctx);  // rib_origins is empty
  EXPECT_EQ(fresh.reference_list(kPrefix), AsnSet{});
  EXPECT_TRUE(fresh.accept(route_from({3, 5}, {5}), 3, h2.ctx));
  EXPECT_EQ(fresh.reference_list(kPrefix), AsnSet{5});
}

TEST(MoasDetector, BansLiveOutOfLineUntilTheirLastWitnessGoes) {
  // Two prefixes ban origin 52, each on the word of two peers: the attacker
  // itself and one more peer that relayed its route after the ban.
  Harness h;
  const net::Prefix other = *net::Prefix::parse("10.0.0.0/8");
  h.truth->set(kPrefix, {1});
  h.truth->set(other, {2});
  auto detector = h.make();
  const auto to_other = [&](bgp::Route route) {
    route.prefix = other;
    return route;
  };
  EXPECT_TRUE(detector.accept(route_from({9, 1}), 9, h.ctx));
  EXPECT_FALSE(detector.accept(route_from({52}), 52, h.ctx));
  EXPECT_FALSE(detector.accept(route_from({7, 52}), 7, h.ctx));
  EXPECT_TRUE(detector.accept(to_other(route_from({9, 2})), 9, h.ctx));
  EXPECT_FALSE(detector.accept(to_other(route_from({52})), 52, h.ctx));
  EXPECT_FALSE(detector.accept(to_other(route_from({6, 52})), 6, h.ctx));
  ASSERT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
  ASSERT_EQ(detector.banned_origins(other), AsnSet{52});
  const std::size_t alarms = h.alarms->size();

  // The attacker's own session goes: each ban keeps one witness. The
  // resolutions left no supporters, so the references go with it.
  detector.on_peer_down(52, h.ctx);
  EXPECT_EQ(detector.banned_origins(kPrefix), AsnSet{52});
  EXPECT_EQ(detector.banned_origins(other), AsnSet{52});
  EXPECT_TRUE(detector.reference_list(kPrefix).empty());
  const std::size_t both = detector.state_bytes();

  // kPrefix's last witness goes: its ban table is freed and the empty state
  // dropped. `other` is untouched.
  detector.on_peer_down(7, h.ctx);
  EXPECT_TRUE(detector.banned_origins(kPrefix).empty());
  EXPECT_EQ(detector.banned_origins(other), AsnSet{52});
  EXPECT_LT(detector.state_bytes(), both);

  // Dropped state is a cold start: the next announcement becomes the
  // reference without a conflict.
  EXPECT_TRUE(detector.accept(route_from({52}), 52, h.ctx));
  EXPECT_EQ(detector.reference_list(kPrefix), AsnSet{52});
  EXPECT_EQ(h.alarms->size(), alarms);

  // The last witness on `other` and the new supporter on kPrefix go: no
  // state is left, so a reset wiping the table has nothing more to free.
  detector.on_peer_down(6, h.ctx);
  detector.on_peer_down(52, h.ctx);
  EXPECT_TRUE(detector.banned_origins(other).empty());
  EXPECT_TRUE(detector.reference_list(kPrefix).empty());
  const std::size_t dropped = detector.state_bytes();
  detector.on_reset(h.ctx);
  EXPECT_EQ(detector.state_bytes(), dropped);
}

TEST(MoasDetector, RequiresAlarmLog) {
  EXPECT_THROW(MoasDetector(nullptr, nullptr), std::invalid_argument);
}

TEST(AlarmLog, CountsByCause) {
  AlarmLog log;
  MoasAlarm a;
  a.cause = MoasAlarm::Cause::ListMismatch;
  log.record(a);
  a.cause = MoasAlarm::Cause::OriginNotInList;
  log.record(a);
  log.record(a);
  EXPECT_EQ(log.count(MoasAlarm::Cause::ListMismatch), 1u);
  EXPECT_EQ(log.count(MoasAlarm::Cause::OriginNotInList), 2u);
  EXPECT_EQ(log.count(MoasAlarm::Cause::BannedOriginSeen), 0u);
  log.clear();
  EXPECT_TRUE(log.empty());
}

TEST(AlarmLog, ToStringMentionsEverything) {
  MoasAlarm alarm;
  alarm.observer = 7;
  alarm.prefix = kPrefix;
  alarm.reference_list = {1, 2};
  alarm.observed_list = {52};
  alarm.offending_origins = {52};
  const std::string text = alarm.to_string();
  EXPECT_NE(text.find("AS7"), std::string::npos);
  EXPECT_NE(text.find("135.38.0.0/16"), std::string::npos);
  EXPECT_NE(text.find("{52}"), std::string::npos);
}

}  // namespace
}  // namespace moas::core
