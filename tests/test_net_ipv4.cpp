#include "moas/net/ipv4.h"

#include <gtest/gtest.h>

namespace moas::net {
namespace {

TEST(Ipv4Addr, OctetConstructor) {
  const Ipv4Addr addr(192, 168, 1, 2);
  EXPECT_EQ(addr.value(), 0xc0a80102u);
}

TEST(Ipv4Addr, ToString) {
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1).to_string(), "10.0.0.1");
  EXPECT_EQ(Ipv4Addr(0u).to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Addr(~0u).to_string(), "255.255.255.255");
}

struct RoundTripCase {
  const char* text;
};

// Print the address text, not the pointer bytes, so the test names that
// gtest_discover_tests derives from the parameter are the same in every build.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << ::testing::PrintToString(c.text); }

class Ipv4RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(Ipv4RoundTrip, ParseThenFormat) {
  const auto addr = Ipv4Addr::parse(GetParam().text);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), GetParam().text);
}

INSTANTIATE_TEST_SUITE_P(Addresses, Ipv4RoundTrip,
                         ::testing::Values(RoundTripCase{"0.0.0.0"}, RoundTripCase{"1.2.3.4"},
                                           RoundTripCase{"10.255.0.1"},
                                           RoundTripCase{"135.38.0.0"},
                                           RoundTripCase{"255.255.255.255"}));

class Ipv4BadParse : public ::testing::TestWithParam<const char*> {};

TEST_P(Ipv4BadParse, Rejected) { EXPECT_FALSE(Ipv4Addr::parse(GetParam()).has_value()); }

INSTANTIATE_TEST_SUITE_P(BadInputs, Ipv4BadParse,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d",
                                           "1..2.3", "1.2.3.4 ", "-1.2.3.4"));

TEST(Ipv4Addr, BitIndexing) {
  const Ipv4Addr addr(0x80000001u);
  EXPECT_TRUE(addr.bit(0));
  EXPECT_FALSE(addr.bit(1));
  EXPECT_FALSE(addr.bit(30));
  EXPECT_TRUE(addr.bit(31));
}

TEST(Ipv4Addr, Ordering) {
  EXPECT_LT(Ipv4Addr(10, 0, 0, 0), Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(Ipv4Addr(1, 2, 3, 4), *Ipv4Addr::parse("1.2.3.4"));
}

}  // namespace
}  // namespace moas::net
