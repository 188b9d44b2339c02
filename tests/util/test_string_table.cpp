#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace wsmd {
namespace {

TEST(StringUtil, SplitWhitespace) {
  const auto t = split_whitespace("  a  bb\tccc \n d ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "ccc");
  EXPECT_EQ(t[3], "d");
}

TEST(StringUtil, SplitWhitespaceEmpty) {
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace("   \t\n ").empty());
}

TEST(StringUtil, SplitOnDelimiterKeepsEmptyFields) {
  const auto t = split("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("ITEM: TIMESTEP", "ITEM:"));
  EXPECT_FALSE(starts_with("IT", "ITEM:"));
}

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d atoms at %.1f K", 800, 290.0), "800 atoms at 290.0 K");
  EXPECT_EQ(format("plain"), "plain");
}

TEST(StringUtil, ParseDoubleStrict) {
  double v = 0.0;
  EXPECT_TRUE(parse_double_strict("+1.5", v));
  EXPECT_EQ(v, 1.5);
  EXPECT_TRUE(parse_double_strict("-0", v));
  EXPECT_TRUE(v == 0.0 && std::signbit(v));
  // An underflow to a subnormal is a value (the writers emit them).
  EXPECT_TRUE(parse_double_strict("1e-310", v));
  EXPECT_EQ(v, 1e-310);
  EXPECT_TRUE(parse_double_strict("4.9e-324", v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
  // Overflow, underflow past the subnormals, and partial tokens fail.
  EXPECT_FALSE(parse_double_strict("1e999", v));
  EXPECT_FALSE(parse_double_strict("1e-400", v));
  EXPECT_FALSE(parse_double_strict("1.5x", v));
  EXPECT_FALSE(parse_double_strict("", v));
  EXPECT_FALSE(parse_double_strict("x", v));
}

TEST(StringUtil, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(801792), "801,792");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter t({"Element", "Atoms", "Steps/s"});
  t.add_row({"Ta", "801,792", "274,016"});
  t.add_row({"Cu", "801,792", "106,313"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| Element | Atoms   | Steps/s |"), std::string::npos);
  EXPECT_NE(s.find("| Ta      | 801,792 | 274,016 |"), std::string::npos);
}

TEST(TablePrinter, TitleIsPrintedFirst) {
  TablePrinter t({"a"});
  t.set_title("Table I");
  t.add_row({"x"});
  EXPECT_EQ(t.str().rfind("Table I", 0), 0u);
}

TEST(TablePrinter, RejectsMismatchedRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TablePrinter, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), Error);
}

}  // namespace
}  // namespace wsmd
