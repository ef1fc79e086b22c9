#include "moas/bgp/community.h"

#include <gtest/gtest.h>

namespace moas::bgp {
namespace {

TEST(Community, Encoding) {
  const Community c(100, 200);
  EXPECT_EQ(c.asn(), 100);
  EXPECT_EQ(c.value(), 200);
  EXPECT_EQ(c.raw(), (100u << 16) | 200u);
}

TEST(Community, RawRoundTrip) {
  const Community c(0xdeadbeefu);
  EXPECT_EQ(c.asn(), 0xdead);
  EXPECT_EQ(c.value(), 0xbeef);
}

TEST(Community, WellKnownValues) {
  EXPECT_EQ(kNoExport.raw(), 0xffffff01u);
  EXPECT_EQ(kNoAdvertise.raw(), 0xffffff02u);
  EXPECT_EQ(kNoExportSubconfed.raw(), 0xffffff03u);
}

TEST(Community, ToString) { EXPECT_EQ(Community(65000, 42).to_string(), "65000:42"); }

}  // namespace
}  // namespace moas::bgp
