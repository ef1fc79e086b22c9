#include "moas/bgp/router.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace moas::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

Route make_route(const char* prefix, std::vector<Asn> path) {
  Route r;
  r.prefix = pfx(prefix);
  r.attrs.path = AsPath(std::move(path));
  return r;
}

/// Captures everything a router sends, keyed by destination.
struct Wiretap {
  std::map<Asn, std::vector<Update>> sent;
  Router::SendFn fn() {
    return [this](Asn to, std::uint32_t, const Update& update) { sent[to].push_back(update); };
  }
  std::size_t total() const {
    std::size_t n = 0;
    for (const auto& [to, v] : sent) n += v.size();
    return n;
  }
};

TEST(Router, RejectsBadConstruction) {
  Wiretap tap;
  EXPECT_THROW(Router(kNoAs, PolicyMode::ShortestPath, tap.fn(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(Router(1, PolicyMode::ShortestPath, Router::SendFn(), nullptr),
               std::invalid_argument);
}

TEST(Router, PeerManagement) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  EXPECT_TRUE(router.has_peer(2));
  EXPECT_FALSE(router.has_peer(3));
  EXPECT_THROW(router.add_peer(2, Relationship::Peer), std::invalid_argument);
  EXPECT_THROW(router.add_peer(1, Relationship::Peer), std::invalid_argument);
  EXPECT_EQ(router.peers(), std::vector<Asn>{2});
}

TEST(Router, OriginateInstallsAndAdvertises) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.originate(pfx("10.0.0.0/8"));

  ASSERT_NE(router.best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(router.best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(1u));
  EXPECT_TRUE(router.originates(pfx("10.0.0.0/8")));

  ASSERT_EQ(tap.sent[2].size(), 1u);
  const Update& update = tap.sent[2][0];
  EXPECT_EQ(update.kind, Update::Kind::Announce);
  // Exported path is exactly {1}: locally originated, no double prepend.
  EXPECT_EQ(update.route->attrs.path.to_string(), "1");
  // LOCAL_PREF is reset for the wire.
  EXPECT_EQ(update.route->attrs.local_pref, 100u);
}

TEST(Router, LearnedRouteGetsPrepended) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));

  ASSERT_EQ(tap.sent[3].size(), 1u);
  EXPECT_EQ(tap.sent[3][0].route->attrs.path.to_string(), "1 2 9");
}

TEST(Router, SplitHorizonSuppressesEcho) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  // Nothing goes back to the advertising peer.
  EXPECT_TRUE(tap.sent[2].empty());
}

TEST(Router, LoopingPathDiscarded) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 1, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(router.stats().loops_detected, 1u);
}

TEST(Router, LoopingPathActsAsImplicitWithdraw) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  ASSERT_NE(router.best(pfx("10.0.0.0/8")), nullptr);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 1, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8")), nullptr);
}

TEST(Router, PicksShorterPath) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 7, 9})));
  router.handle_update(3, Update::announce(make_route("10.0.0.0/8", {3, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8"))->learned_from, 3u);
}

TEST(Router, PrefersEstablishedOnKeyTie) {
  Wiretap tap;
  Router router(5, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  // Peer 3's route arrives first, peer 2 ties the key (equal length).
  router.handle_update(3, Update::announce(make_route("10.0.0.0/8", {3, 9})));
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8"))->learned_from, 3u);

  // With age preference off, the lowest neighbor ASN wins the tie.
  router.set_prefer_established(false);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 8})));
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8"))->learned_from, 2u);
}

TEST(Router, WithdrawFallsBackToAlternative) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  router.handle_update(3, Update::announce(make_route("10.0.0.0/8", {3, 8, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8"))->learned_from, 2u);
  router.handle_update(2, Update::withdraw(pfx("10.0.0.0/8")));
  ASSERT_NE(router.best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(router.best(pfx("10.0.0.0/8"))->learned_from, 3u);
}

TEST(Router, WithdrawPropagatesWhenNoAlternative) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  ASSERT_EQ(tap.sent[3].size(), 1u);
  router.handle_update(2, Update::withdraw(pfx("10.0.0.0/8")));
  ASSERT_EQ(tap.sent[3].size(), 2u);
  EXPECT_EQ(tap.sent[3][1].kind, Update::Kind::Withdraw);
}

TEST(Router, NoSpuriousWithdrawWithoutPriorAnnounce) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.handle_update(2, Update::withdraw(pfx("10.0.0.0/8")));
  EXPECT_EQ(tap.total(), 0u);
}

TEST(Router, DuplicateAnnouncementSuppressed) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  const auto route = make_route("10.0.0.0/8", {2, 9});
  router.handle_update(2, Update::announce(route));
  router.handle_update(2, Update::announce(route));
  EXPECT_EQ(tap.sent[3].size(), 1u);
}

TEST(Router, WithdrawOrigination) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.originate(pfx("10.0.0.0/8"));
  router.withdraw_origination(pfx("10.0.0.0/8"));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8")), nullptr);
  ASSERT_EQ(tap.sent[2].size(), 2u);
  EXPECT_EQ(tap.sent[2][1].kind, Update::Kind::Withdraw);
}

TEST(Router, LocalRouteBeatsShorterLearnedRoute) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2})));
  router.originate(pfx("10.0.0.0/8"));
  EXPECT_EQ(router.best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(1u));
}

TEST(Router, CommunitiesCarriedAndStrippable) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);

  Route route = make_route("10.0.0.0/8", {2, 9});
  route.attrs.communities.add(Community(9, 42));
  router.handle_update(2, Update::announce(route));
  ASSERT_EQ(tap.sent[3].size(), 1u);
  EXPECT_TRUE(tap.sent[3][0].route->attrs.communities.contains(Community(9, 42)));

  // Stripping applies to re-advertised routes...
  router.set_strip_communities(true);
  Route updated = route;
  updated.attrs.path = AsPath({2, 8, 9});
  router.handle_update(2, Update::announce(updated));
  // (the first route was withdrawn implicitly and replaced)
  ASSERT_EQ(tap.sent[3].size(), 2u);
  EXPECT_TRUE(tap.sent[3][1].route->attrs.communities.empty());

  // ...but not to locally originated ones.
  CommunitySet own;
  own.add(Community(1, 7));
  router.originate(pfx("11.0.0.0/8"), own);
  const Update& local = tap.sent[3].back();
  EXPECT_TRUE(local.route->attrs.communities.contains(Community(1, 7)));
}

TEST(Router, ExportFilterSuppresses) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.set_export_filter([](const Update&, Asn to) { return to != 3; });
  router.originate(pfx("10.0.0.0/8"));
  EXPECT_EQ(tap.sent[2].size(), 1u);
  EXPECT_TRUE(tap.sent[3].empty());
}

TEST(Router, GaoRexfordExportRules) {
  Wiretap tap;
  Router router(1, PolicyMode::GaoRexford, tap.fn(), nullptr);
  router.add_peer(10, Relationship::Provider);
  router.add_peer(20, Relationship::Peer);
  router.add_peer(30, Relationship::Customer);

  // A provider-learned route goes only to customers.
  router.handle_update(10, Update::announce(make_route("10.0.0.0/8", {10, 9})));
  EXPECT_TRUE(tap.sent[20].empty());
  ASSERT_EQ(tap.sent[30].size(), 1u);

  // A customer-learned route goes everywhere (it also wins the decision
  // because customer LOCAL_PREF is higher).
  router.handle_update(30, Update::announce(make_route("11.0.0.0/8", {30})));
  EXPECT_EQ(tap.sent[10].size(), 1u);
  EXPECT_EQ(tap.sent[20].size(), 1u);
}

TEST(Router, GaoRexfordPrefersCustomerRouteOverShorterProviderRoute) {
  Wiretap tap;
  Router router(1, PolicyMode::GaoRexford, tap.fn(), nullptr);
  router.add_peer(10, Relationship::Provider);
  router.add_peer(30, Relationship::Customer);
  router.handle_update(10, Update::announce(make_route("10.0.0.0/8", {10, 9})));
  router.handle_update(30, Update::announce(make_route("10.0.0.0/8", {30, 7, 8, 9})));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8"))->learned_from, 30u);
}

TEST(Router, UpdateFromUnknownPeerRejected) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  EXPECT_THROW(router.handle_update(99, Update::withdraw(pfx("10.0.0.0/8"))),
               std::invalid_argument);
}

TEST(Router, StatsCountersAdvance) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  router.handle_update(2, Update::withdraw(pfx("10.0.0.0/8")));
  EXPECT_EQ(router.stats().updates_received, 2u);
  EXPECT_GE(router.stats().decisions, 2u);
  EXPECT_GE(router.stats().best_changes, 2u);
}

TEST(Router, InvalidateOriginsPurgesAndReselects) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  router.handle_update(3, Update::announce(make_route("10.0.0.0/8", {3, 6, 8})));
  EXPECT_EQ(router.best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(9u));
  EXPECT_EQ(router.invalidate_origins(pfx("10.0.0.0/8"), {9}), 1u);
  EXPECT_EQ(router.best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(8u));
}

TEST(Router, MraiRequiresClock) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  EXPECT_THROW(router.set_mrai(30.0), std::invalid_argument);
  router.set_mrai(0.0);  // disabling is always fine
}

TEST(Router, MraiPacesUpdates) {
  sim::EventQueue clock;
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), &clock);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.set_mrai(30.0);

  // Three successive best-route changes in rapid succession...
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 7, 8, 9})));
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 8, 9})));
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  // ...yield one immediate update; the rest coalesce behind the timer.
  EXPECT_EQ(tap.sent[3].size(), 1u);
  clock.run();
  // After the MRAI fires, exactly one more (the latest) goes out.
  ASSERT_EQ(tap.sent[3].size(), 2u);
  EXPECT_EQ(tap.sent[3][1].route->attrs.path.to_string(), "1 2 9");
}

TEST(Router, ErrorWithdrawRemovesRouteAndRecordsIt) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.add_peer(3, Relationship::Peer);
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  ASSERT_NE(router.best(pfx("10.0.0.0/8")), nullptr);

  // RFC 7606 treat-as-withdraw: the route goes away like a withdrawal, but
  // the peer is remembered as error-withdrawn until it re-announces.
  router.handle_update(2, Update::make_error_withdraw(pfx("10.0.0.0/8")));
  EXPECT_EQ(router.best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(router.stats().error_withdraws, 1u);
  EXPECT_TRUE(router.route_error_withdrawn(2, pfx("10.0.0.0/8")));

  // A fresh announcement supersedes the record.
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  EXPECT_FALSE(router.route_error_withdrawn(2, pfx("10.0.0.0/8")));

  // So does an explicit withdrawal from the peer...
  router.handle_update(2, Update::make_error_withdraw(pfx("10.0.0.0/8")));
  ASSERT_TRUE(router.route_error_withdrawn(2, pfx("10.0.0.0/8")));
  router.handle_update(2, Update::withdraw(pfx("10.0.0.0/8")));
  EXPECT_FALSE(router.route_error_withdrawn(2, pfx("10.0.0.0/8")));

  // ...and a session loss (peer_down flushes everything it tracked).
  router.handle_update(2, Update::announce(make_route("10.0.0.0/8", {2, 9})));
  router.handle_update(2, Update::make_error_withdraw(pfx("10.0.0.0/8")));
  ASSERT_TRUE(router.route_error_withdrawn(2, pfx("10.0.0.0/8")));
  router.peer_down(2);
  EXPECT_FALSE(router.route_error_withdrawn(2, pfx("10.0.0.0/8")));
}

TEST(Router, RefreshRouteResendsBookedAdvertisement) {
  Wiretap tap;
  Router router(1, PolicyMode::ShortestPath, tap.fn(), nullptr);
  router.add_peer(2, Relationship::Peer);
  router.originate(pfx("10.0.0.0/8"));
  ASSERT_EQ(tap.sent[2].size(), 1u);

  // The refresh bypasses duplicate suppression: the exact booked route goes
  // out again even though nothing changed.
  router.refresh_route(2, pfx("10.0.0.0/8"));
  ASSERT_EQ(tap.sent[2].size(), 2u);
  EXPECT_EQ(tap.sent[2][1].kind, Update::Kind::Announce);
  EXPECT_EQ(*tap.sent[2][1].route, *tap.sent[2][0].route);
  EXPECT_EQ(router.stats().route_refreshes, 1u);

  // Nothing advertised for the prefix → silent no-op.
  router.refresh_route(2, pfx("192.0.2.0/24"));
  EXPECT_EQ(tap.sent[2].size(), 2u);
  EXPECT_EQ(router.stats().route_refreshes, 1u);

  // Unknown peer is a caller bug.
  EXPECT_THROW(router.refresh_route(7, pfx("10.0.0.0/8")), std::invalid_argument);

  // A dead session serves no refresh; session replay covers it instead.
  router.peer_down(2);
  router.refresh_route(2, pfx("10.0.0.0/8"));
  EXPECT_EQ(tap.sent[2].size(), 2u);
}

}  // namespace
}  // namespace moas::bgp
