// Tests for CSV, histogram, table and string utilities.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/histogram.h"
#include "util/strings.h"
#include "util/table.h"

namespace flash {
namespace {

// --- CSV -------------------------------------------------------------------

TEST(Csv, WriterBasicRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("a").field(1.5).field(std::int64_t{-2});
  w.end_row();
  EXPECT_EQ(os.str(), "a,1.5,-2\n");
}

TEST(Csv, WriterQuotesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("he,llo").field("qu\"ote").field("multi\nline");
  w.end_row();
  EXPECT_EQ(os.str(), "\"he,llo\",\"qu\"\"ote\",\"multi\nline\"\n");
}

TEST(Csv, ParseSimpleLine) {
  const auto f = parse_csv_line("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(Csv, ParseQuotedWithEscapes) {
  const auto f = parse_csv_line("\"a,b\",\"x\"\"y\"");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "x\"y");
}

TEST(Csv, ParseEmptyFields) {
  const auto f = parse_csv_line(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& s : f) EXPECT_TRUE(s.empty());
}

TEST(Csv, RoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("x,1").field(2.25);
  w.end_row();
  w.field("y").field(3.5);
  w.end_row();
  std::istringstream is(os.str());
  const auto rows = read_csv(is);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "x,1");
  EXPECT_EQ(rows[1][1], "3.5");
}

TEST(Csv, ReadSkipsHeader) {
  std::istringstream is("h1,h2\n1,2\n");
  const auto rows = read_csv(is, /*skip_header=*/true);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "1");
}

TEST(Csv, ToleratesCrlf) {
  const auto f = parse_csv_line("a,b\r");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1], "b");
}

// --- Histogram ---------------------------------------------------------------

TEST(LogHistogram, BinsSpanDecades) {
  LogHistogram h(1.0, 1000.0, 1);
  EXPECT_EQ(h.bin_count(), 3u);
  EXPECT_NEAR(h.lower_edge(0), 1.0, 1e-9);
  EXPECT_NEAR(h.lower_edge(1), 10.0, 1e-9);
  EXPECT_NEAR(h.lower_edge(3), 1000.0, 1e-6);
}

TEST(LogHistogram, CountsLandInRightBins) {
  LogHistogram h(1.0, 1000.0, 1);
  h.add(2.0);    // bin 0
  h.add(20.0);   // bin 1
  h.add(200.0);  // bin 2
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(2), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LogHistogram, UnderOverflow) {
  LogHistogram h(1.0, 100.0, 2);
  h.add(0.5);
  h.add(-1.0);
  h.add(1e6);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LogHistogram, CdfMonotoneEndsAtOne) {
  LogHistogram h(0.01, 1e6, 4);
  for (double x : {0.5, 3.0, 100.0, 5000.0, 5000.0, 99999.0}) h.add(x);
  const auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0;
  for (const auto& [x, f] : cdf) {
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-12);
}

TEST(LogHistogram, WeightedAdd) {
  LogHistogram h(1.0, 100.0, 1);
  h.add(5.0, 10);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.bin(0), 10u);
}

TEST(LogHistogram, RenderShowsNonEmptyBins) {
  LogHistogram h(1.0, 100.0, 1);
  h.add(5.0);
  const std::string r = h.render();
  EXPECT_NE(r.find('#'), std::string::npos);
}

TEST(LogHistogram, PercentileInterpolatesWithinBins) {
  LogHistogram h(1.0, 1000.0, 1);
  for (int i = 0; i < 100; ++i) h.add(5.0);  // all mass in bin [1, 10)
  const double p50 = h.percentile(0.50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 10.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.percentile(0.10), h.percentile(0.90));
}

TEST(LogHistogram, PercentileOrdersAcrossBins) {
  LogHistogram h(1.0, 1000.0, 1);
  for (int i = 0; i < 90; ++i) h.add(2.0);    // bin [1, 10)
  for (int i = 0; i < 10; ++i) h.add(500.0);  // bin [100, 1000)
  EXPECT_LT(h.percentile(0.50), 10.0);
  EXPECT_GT(h.percentile(0.95), 100.0);
}

TEST(LogHistogram, PercentileEdgeCases) {
  LogHistogram empty(1.0, 100.0, 1);
  EXPECT_EQ(empty.percentile(0.5), 0.0);
  LogHistogram under(1.0, 100.0, 1);
  under.add(0.01);  // underflow only
  EXPECT_LE(under.percentile(0.5), 1.0);
  LogHistogram over(1.0, 100.0, 1);
  over.add(1e9);  // overflow only
  EXPECT_GE(over.percentile(0.5), 100.0);
}

// --- Strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_TRUE(parts[1].empty());
  EXPECT_EQ(parts[2], "b");
  EXPECT_TRUE(parts[3].empty());
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double(" 2e3 "), 2000.0);
  EXPECT_FALSE(parse_double("1.5x"));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("abc"));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_FALSE(parse_int("42.5"));
  EXPECT_FALSE(parse_int("9999999999999999999999"));
}

TEST(Strings, ParseUintRejectsNegative) {
  EXPECT_EQ(parse_uint("7"), 7u);
  EXPECT_FALSE(parse_uint("-7"));
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("flash", "fla"));
  EXPECT_FALSE(starts_with("fl", "fla"));
  EXPECT_EQ(to_lower("FlAsH"), "flash");
}

// --- Table ---------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TextTable t;
  t.header({"name", "v"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.4256, 1), "42.6%");
  EXPECT_EQ(fmt_signed_pct(0.4256, 1), "+42.6%");
  EXPECT_EQ(fmt_signed_pct(-0.008, 1), "-0.8%");
  EXPECT_EQ(fmt_signed_pct(0.0), "+0.0%");
  EXPECT_EQ(fmt_ratio(2.3, 1), "2.3x");
  EXPECT_NE(fmt_sci(1234567.0).find('e'), std::string::npos);
}

}  // namespace
}  // namespace flash
