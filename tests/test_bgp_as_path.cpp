#include "moas/bgp/as_path.h"

#include <gtest/gtest.h>

namespace moas::bgp {
namespace {

TEST(AsPath, EmptyPath) {
  const AsPath path;
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(path.selection_length(), 0u);
  EXPECT_FALSE(path.origin().has_value());
  EXPECT_FALSE(path.first().has_value());
  EXPECT_TRUE(path.origin_candidates().empty());
  EXPECT_EQ(path.to_string(), "");
}

TEST(AsPath, SequenceBasics) {
  const AsPath path({1, 2, 3});
  EXPECT_EQ(path.selection_length(), 3u);
  EXPECT_EQ(path.first(), std::optional<Asn>(1u));
  EXPECT_EQ(path.origin(), std::optional<Asn>(3u));
  EXPECT_EQ(path.origin_candidates(), AsnSet{3});
  EXPECT_EQ(path.to_string(), "1 2 3");
}

TEST(AsPath, PrependExtendsFront) {
  AsPath path({2, 3});
  path.prepend(1);
  EXPECT_EQ(path.to_string(), "1 2 3");
  EXPECT_EQ(path.selection_length(), 3u);
}

TEST(AsPath, PrependOntoEmpty) {
  AsPath path;
  path.prepend(7);
  EXPECT_EQ(path.to_string(), "7");
  EXPECT_EQ(path.origin(), std::optional<Asn>(7u));
}

TEST(AsPath, PrependRejectsNullAsn) {
  AsPath path;
  EXPECT_THROW(path.prepend(kNoAs), std::invalid_argument);
}

TEST(AsPath, ContainsForLoopDetection) {
  const AsPath path({1, 2, 3});
  EXPECT_TRUE(path.contains(2));
  EXPECT_FALSE(path.contains(9));
}

TEST(AsPath, SetSegmentSemantics) {
  AsPath path({1, 2});
  path.append_set({10, 11, 12});
  // A set counts as one hop for selection.
  EXPECT_EQ(path.selection_length(), 3u);
  // Trailing set: no unique origin, three candidates.
  EXPECT_FALSE(path.origin().has_value());
  EXPECT_EQ(path.origin_candidates(), (AsnSet{10, 11, 12}));
  EXPECT_TRUE(path.contains(11));
  EXPECT_EQ(path.to_string(), "1 2 {10,11,12}");
}

TEST(AsPath, AppendSetRejectsEmpty) {
  AsPath path;
  EXPECT_THROW(path.append_set({}), std::invalid_argument);
}

TEST(AsPath, PrependAfterLeadingSetCreatesSequence) {
  AsPath path;
  path.append_set({5, 6});
  path.prepend(1);
  EXPECT_EQ(path.to_string(), "1 {5,6}");
  EXPECT_EQ(path.first(), std::optional<Asn>(1u));
}

TEST(AsPath, FirstIsAmbiguousOnLeadingSet) {
  AsPath path;
  path.append_set({5, 6});
  EXPECT_FALSE(path.first().has_value());
}

TEST(AsPath, PrependingSameAsnTwice) {
  // Path prepending (traffic engineering): the path literally repeats.
  AsPath path({3});
  path.prepend(2);
  path.prepend(2);
  EXPECT_EQ(path.to_string(), "2 2 3");
  EXPECT_EQ(path.selection_length(), 3u);
}

TEST(AsPath, EqualityIsStructural) {
  EXPECT_EQ(AsPath({1, 2}), AsPath({1, 2}));
  EXPECT_NE(AsPath({1, 2}), AsPath({2, 1}));
}

TEST(AsPath, ParseMidPathSet) {
  AsPath path({7});
  path.append_set({1, 2});
  path.append_sequence({9});
  EXPECT_EQ(path.to_string(), "7 {1,2} 9");
  // The path ends in a sequence, so the origin is unique.
  EXPECT_EQ(path.origin(), std::optional<Asn>(9u));
  EXPECT_EQ(path.selection_length(), 3u);
}

}  // namespace
}  // namespace moas::bgp
