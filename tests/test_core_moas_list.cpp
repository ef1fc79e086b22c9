#include "moas/core/moas_list.h"

#include <gtest/gtest.h>

#include "moas/bgp/intern.h"
#include "moas/util/rng.h"

namespace moas::core {
namespace {

bgp::Route route_with(std::vector<bgp::Asn> path, const AsnSet& list = {}) {
  bgp::Route r;
  r.prefix = *net::Prefix::parse("135.38.0.0/16");
  r.attrs.path = bgp::AsPath(std::move(path));
  if (!list.empty()) r.attrs.communities = encode_moas_list(list);
  return r;
}

TEST(MoasList, CommunityEncoding) {
  const bgp::Community c = moas_community(4006);
  EXPECT_EQ(c.asn(), 4006);
  EXPECT_EQ(c.value(), kMoasListValue);
  EXPECT_TRUE(is_moas_community(c));
  EXPECT_FALSE(is_moas_community(bgp::Community(4006, 1)));
}

TEST(MoasList, EncodingRejectsWideAsn) {
  EXPECT_THROW(moas_community(70000), std::invalid_argument);
  EXPECT_THROW(moas_community(bgp::kNoAs), std::invalid_argument);
}

TEST(MoasList, EncodeDecodeRoundTrip) {
  const AsnSet origins{1, 2, 40};
  EXPECT_EQ(decode_moas_list(encode_moas_list(origins)), origins);
}

TEST(MoasList, DecodeIgnoresForeignCommunities) {
  bgp::CommunitySet communities = encode_moas_list({1, 2});
  communities.add(bgp::Community(99, 42));
  communities.add(bgp::kNoExport);
  EXPECT_EQ(decode_moas_list(communities), (AsnSet{1, 2}));
}

TEST(MoasList, AttachReplacesOldListKeepsOtherCommunities) {
  bgp::PathAttributes attrs;
  attrs.communities = encode_moas_list({1, 2});
  attrs.communities.add(bgp::Community(99, 42));
  attach_moas_list(attrs, {7, 8});
  EXPECT_EQ(decode_moas_list(attrs.communities), (AsnSet{7, 8}));
  EXPECT_TRUE(attrs.communities.contains(bgp::Community(99, 42)));
  EXPECT_FALSE(attrs.communities.contains(moas_community(1)));
  EXPECT_TRUE(attrs.large_communities.empty());
}

TEST(MoasList, EffectiveListPrefersExplicit) {
  // Footnote 3 in reverse: with an explicit list the path origin is not
  // consulted.
  const bgp::Route r = route_with({9, 1}, {1, 2});
  EXPECT_EQ(effective_moas_list(r), (AsnSet{1, 2}));
  EXPECT_TRUE(has_explicit_moas_list(r));
}

TEST(MoasList, EffectiveListFallsBackToOrigin) {
  // "If a route does not contain a MOAS list, it will be treated as if it
  //  carries a MOAS list containing the origin AS."
  const bgp::Route r = route_with({9, 1});
  EXPECT_EQ(effective_moas_list(r), AsnSet{1});
  EXPECT_FALSE(has_explicit_moas_list(r));
}

TEST(MoasList, EffectiveListHandlesAggregateOrigins) {
  bgp::Route r = route_with({9});
  r.attrs.path.append_set({4, 5});
  EXPECT_EQ(effective_moas_list(r), (AsnSet{4, 5}));
}

TEST(MoasList, ConsistencyIsSetEquality) {
  // "The order in the list may differ, but the set of ASes included in each
  //  route announcement must be identical."
  EXPECT_TRUE(lists_consistent({1, 2}, {2, 1}));
  EXPECT_TRUE(lists_consistent({}, {}));
  EXPECT_FALSE(lists_consistent({1, 2}, {1, 2, 3}));
  EXPECT_FALSE(lists_consistent({1}, {2}));
}

TEST(MoasList, ListToString) {
  EXPECT_EQ(list_to_string({1, 2}), "{1, 2}");
  EXPECT_EQ(list_to_string({}), "{}");
}

TEST(MoasList, LargeCommunityEncoding) {
  const bgp::LargeCommunity c = moas_large_community(70'000);
  EXPECT_EQ(c.global_admin(), 70'000u);
  EXPECT_EQ(c.data1(), kMoasListValue);
  EXPECT_EQ(c.data2(), 0u);
  EXPECT_TRUE(is_moas_large_community(c));
  EXPECT_FALSE(is_moas_large_community(bgp::LargeCommunity(70'000, kMoasListValue, 1)));
  EXPECT_FALSE(is_moas_large_community(bgp::LargeCommunity(70'000, 1, 0)));
  EXPECT_THROW(moas_large_community(bgp::kNoAs), std::invalid_argument);
}

TEST(MoasList, AttachSplitsMembersByWidth) {
  // RFC 1997 communities can only carry 2-octet members; wider ones ride
  // RFC 8092 large communities. attach_moas_list splits, decode unions.
  bgp::PathAttributes attrs;
  attach_moas_list(attrs, {4006, 70'000, 4'200'000'000});
  EXPECT_TRUE(attrs.communities.contains(moas_community(4006)));
  EXPECT_EQ(attrs.communities.size(), 1u);
  EXPECT_TRUE(attrs.large_communities.contains(moas_large_community(70'000)));
  EXPECT_TRUE(attrs.large_communities.contains(moas_large_community(4'200'000'000)));
  EXPECT_EQ(attrs.large_communities.size(), 2u);
  EXPECT_EQ(decode_moas_list(attrs), (AsnSet{4006, 70'000, 4'200'000'000}));
}

TEST(MoasList, AttachToAttributesReplacesBothWidths) {
  // A member that changes width between attachments must not survive in the
  // stale attribute: {70'000} -> {70'000 narrow-co-member} reshuffles both.
  bgp::PathAttributes attrs;
  attrs.communities.add(bgp::Community(99, 42));  // foreign, must survive
  attach_moas_list(attrs, {4006, 70'000});
  attach_moas_list(attrs, {100'000});
  EXPECT_EQ(decode_moas_list(attrs), AsnSet{100'000});
  EXPECT_FALSE(attrs.communities.contains(moas_community(4006)));
  EXPECT_FALSE(attrs.large_communities.contains(moas_large_community(70'000)));
  EXPECT_TRUE(attrs.communities.contains(bgp::Community(99, 42)));
}

TEST(MoasList, EffectiveListSeesWideMembers) {
  bgp::Route r;
  r.prefix = *net::Prefix::parse("135.38.0.0/16");
  r.attrs.path = bgp::AsPath({9, 70'001});
  attach_moas_list(r.attrs, {70'001, 70'002});
  EXPECT_TRUE(has_explicit_moas_list(r));
  EXPECT_EQ(effective_moas_list(r), (AsnSet{70'001, 70'002}));

  // Mixed widths: narrow members in the classic set, wide in the large set,
  // one effective list.
  attach_moas_list(r.attrs, {4006, 70'001});
  EXPECT_EQ(effective_moas_list(r), (AsnSet{4006, 70'001}));
}

TEST(MoasList, NarrowAndLargeCommunitiesShareOneHandle) {
  // The same list, its narrow members once as classic communities and once
  // as large communities, decodes to one canonical handle.
  bgp::PathAttributes split;
  attach_moas_list(split, {4006, 70'000});
  bgp::PathAttributes wide;
  wide.large_communities.add(moas_large_community(4006));
  wide.large_communities.add(moas_large_community(70'000));
  ASSERT_NE(split.communities, wide.communities);
  const MoasList a = moas_list_of(split);
  const MoasList b = moas_list_of(wide);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.set(), (AsnSet{4006, 70'000}));
  EXPECT_EQ(a, MoasList::of(AsnSet{4006, 70'000}));
  EXPECT_NE(a, MoasList::of(AsnSet{4006}));
  // A repeat is served from the memo, and still the same handle.
  EXPECT_EQ(moas_list_of(split), a);
}

TEST(MoasList, HandleEqualityIsSetEquality) {
  bgp::PathAttributes none;
  none.communities.add(bgp::Community(99, 42));  // no MOAS member
  EXPECT_TRUE(moas_list_of(none).empty());
  EXPECT_EQ(moas_list_of(bgp::PathAttributes{}), MoasList{});
  const std::vector<Asn> members = {3, 7};
  EXPECT_TRUE(MoasList::of(members).equals(members));
  EXPECT_FALSE(MoasList::of(members).equals(std::vector<Asn>{3}));
  EXPECT_TRUE(MoasList{}.equals({}));
  EXPECT_EQ(MoasList::of(std::vector<Asn>{}), MoasList{});
}

TEST(MoasList, MemoForgetsADeadArena) {
  // Arenas in a row, each interning one distinct list: the allocator tends
  // to hand a new arena the addresses of the one before, so a memo still
  // keyed by a dead arena's handles would decode this set to an old list.
  for (Asn i = 0; i < 256; ++i) {
    const bgp::intern::ScopedArena arena;
    const AsnSet list{1000 + i, 30'000 + i};
    bgp::PathAttributes attrs;
    attach_moas_list(attrs, list);
    ASSERT_EQ(moas_list_of(attrs).set(), list) << "arena " << i;
  }
}

/// Property sweep: decode(encode(S)) == S for random sets.
class MoasListRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoasListRoundTrip, RandomSets) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    AsnSet origins;
    const auto n = 1 + rng.index(5);
    while (origins.size() < n) {
      origins.insert(static_cast<bgp::Asn>(rng.uniform(1, 0xffff)));
    }
    EXPECT_EQ(decode_moas_list(encode_moas_list(origins)), origins);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoasListRoundTrip, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace moas::core
