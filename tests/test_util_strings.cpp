#include "moas/util/strings.h"

#include <gtest/gtest.h>

#include <sstream>

#include "moas/util/table.h"

namespace moas::util {
namespace {

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, TrailingDelimiter) {
  const auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Trim, AllWhitespaceBecomesEmpty) { EXPECT_EQ(trim("   "), ""); }

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(ParseU64, ValidNumbers) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, ~0ULL);
}

TEST(ParseU64, RejectsGarbage) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64(" 1", v));
}

TEST(ParseU64, RejectsOverflow) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // 2^64
  EXPECT_FALSE(parse_u64("99999999999999999999", v));
}

TEST(FmtDouble, FixedPrecision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(1.0, 0), "1");
  EXPECT_EQ(fmt_double(0.5, 1), "0.5");
}

TEST(TablePrinter, AlignedOutput) {
  TablePrinter table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TablePrinter, CsvEscaping) {
  TablePrinter table({"a", "b"});
  table.add_row({"has,comma", "has\"quote"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(TablePrinter, RowArityMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace moas::util
