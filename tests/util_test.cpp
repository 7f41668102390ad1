// Unit tests for the utility substrate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "util/csv.h"
#include "util/error.h"
#include "util/fixed.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace cs::util {
namespace {

TEST(Fixed, BasicArithmetic) {
  const Fixed a = Fixed::from_int(3);
  const Fixed b = Fixed::from_double(1.5);
  EXPECT_EQ((a + b).to_string(), "4.5");
  EXPECT_EQ((a - b).to_string(), "1.5");
  EXPECT_EQ((a * 2).to_string(), "6");
  EXPECT_EQ((a / 2).to_string(), "1.5");
  EXPECT_EQ((-b).to_string(), "-1.5");
}

TEST(Fixed, FixedTimesFixedRounds) {
  const Fixed half = Fixed::from_double(0.5);
  const Fixed third = Fixed::from_raw(333);  // 0.333
  EXPECT_EQ((half * third).raw(), 167);      // 0.1665 -> 0.167
  EXPECT_EQ((half * half).raw(), 250);
}

TEST(Fixed, ComparisonAndOrdering) {
  EXPECT_LT(Fixed::from_int(1), Fixed::from_int(2));
  EXPECT_EQ(Fixed::from_double(2.0), Fixed::from_int(2));
  EXPECT_GT(Fixed::from_raw(1), Fixed{});
}

TEST(Fixed, ToStringEdgeCases) {
  EXPECT_EQ(Fixed{}.to_string(), "0");
  EXPECT_EQ(Fixed::from_raw(-500).to_string(), "-0.5");
  EXPECT_EQ(Fixed::from_raw(1200).to_string(), "1.2");
  EXPECT_EQ(Fixed::from_raw(1001).to_string(), "1.001");
}

TEST(Fixed, RoundDiv) {
  EXPECT_EQ(round_div(10, 3), 3);
  EXPECT_EQ(round_div(11, 3), 4);
  EXPECT_EQ(round_div(0, 7), 0);
}

TEST(Fixed, SaturatesAtTheRails) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Fixed top = Fixed::from_raw(kMax);
  const Fixed bottom = Fixed::from_raw(kMin);
  const Fixed one = Fixed::from_int(1);

  // Addition/subtraction past the rails clamps instead of wrapping: a
  // giant cost sum must stay "very large", never flip sign.
  EXPECT_EQ((top + one).raw(), kMax);
  EXPECT_EQ((bottom - one).raw(), kMin);
  EXPECT_EQ((bottom + (-one)).raw(), kMin);
  Fixed acc = top;
  acc += top;
  EXPECT_EQ(acc.raw(), kMax);
  acc = bottom;
  acc -= top;
  EXPECT_EQ(acc.raw(), kMin);

  // Exactly at the boundary is still exact, one unit over clamps.
  EXPECT_EQ((Fixed::from_raw(kMax - 1) + Fixed::from_raw(1)).raw(), kMax);
  EXPECT_EQ((Fixed::from_raw(kMax - 1) + Fixed::from_raw(2)).raw(), kMax);

  // Negating the minimum clamps to the maximum (|kMin| is unrepresentable).
  EXPECT_EQ((-bottom).raw(), kMax);

  // Multiplication saturates with the algebraic sign.
  EXPECT_EQ((top * 2).raw(), kMax);
  EXPECT_EQ((top * -2).raw(), kMin);
  EXPECT_EQ((bottom * 2).raw(), kMin);
  EXPECT_EQ((top * top).raw(), kMax);
  EXPECT_EQ((top * bottom).raw(), kMin);
  EXPECT_EQ((bottom * bottom).raw(), kMax);

  // Saturation keeps ordering monotone: clamped sums compare as maximal.
  EXPECT_GE(top + one, top);
  EXPECT_LE(bottom - one, bottom);

  // In-range arithmetic is untouched by the saturation paths.
  EXPECT_EQ((Fixed::from_int(3) + Fixed::from_int(4)).to_string(), "7");
  EXPECT_EQ((Fixed::from_int(-3) * 5).to_string(), "-15");
}

TEST(Fixed, EuclideanDivMod) {
  // Quotient rounds toward -inf, remainder is always in [0, |b|).
  EXPECT_EQ(euclidean_div(7, 3), 2);
  EXPECT_EQ(euclidean_mod(7, 3), 1);
  EXPECT_EQ(euclidean_div(-7, 3), -3);
  EXPECT_EQ(euclidean_mod(-7, 3), 2);
  EXPECT_EQ(euclidean_div(7, -3), -2);
  EXPECT_EQ(euclidean_mod(7, -3), 1);
  EXPECT_EQ(euclidean_div(-7, -3), 3);
  EXPECT_EQ(euclidean_mod(-7, -3), 2);
  // Identity a == b * div + mod holds for every sign combination.
  for (std::int64_t a : {-9, -1, 0, 1, 9})
    for (std::int64_t b : {-4, -1, 1, 4})
      EXPECT_EQ(a, b * euclidean_div(a, b) + euclidean_mod(a, b));
  // Division by zero is total (Halide semantics), not a trap.
  EXPECT_EQ(euclidean_div(5, 0), 0);
  EXPECT_EQ(euclidean_mod(5, 0), 0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform(4, 4), 4);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimAndJoin) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, ParseIntErrors) {
  EXPECT_EQ(parse_int("42", "n"), 42);
  EXPECT_EQ(parse_int("-7", "n"), -7);
  EXPECT_THROW(parse_int("4x", "n"), SpecError);
  EXPECT_THROW(parse_int("", "n"), SpecError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "d"), 2.5);
  EXPECT_THROW(parse_double("abc", "d"), SpecError);
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| alpha | 1 "), std::string::npos);
  EXPECT_NE(s.find("|-"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), SpecError);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "/cs_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    ASSERT_TRUE(w.ok());
    w.add_row({"1", "2"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove(path);
}

TEST(Memory, RssIsPositiveOnLinux) {
  EXPECT_GT(current_rss_bytes(), 0);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);
}

TEST(Timer, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(w.elapsed_seconds(), 0.0);
  EXPECT_GE(w.elapsed_ms(), 0.0);
}

TEST(Timer, DeadlineZeroIsNoneNegativeIsExpired) {
  const Deadline none(0);
  EXPECT_EQ(none.remaining_ms(), 0);
  EXPECT_FALSE(none.expired());
  const Deadline expired(-1);
  EXPECT_EQ(expired.remaining_ms(), -1);
  EXPECT_TRUE(expired.expired());
}

TEST(Timer, DeadlineCountsDownThenExpires) {
  const Deadline deadline(50);
  const std::int64_t first = deadline.remaining_ms();
  EXPECT_GT(first, 0);
  EXPECT_LE(first, 50);
  EXPECT_FALSE(deadline.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(deadline.remaining_ms(), -1);
  EXPECT_TRUE(deadline.expired());
}

TEST(Fixed, DivisionByNegative) {
  EXPECT_EQ((Fixed::from_int(3) / -2).to_string(), "-1.5");
}

TEST(Fixed, FromDoubleRounding) {
  EXPECT_EQ(Fixed::from_double(0.0004).raw(), 0);
  EXPECT_EQ(Fixed::from_double(0.0006).raw(), 1);
  EXPECT_EQ(Fixed::from_double(-0.0006).raw(), -1);
}

TEST(Error, RequireThrowsSpecError) {
  EXPECT_THROW(CS_REQUIRE(false, "boom"), SpecError);
  EXPECT_NO_THROW(CS_REQUIRE(true, "fine"));
  EXPECT_THROW(CS_ENSURE(false, "bug"), InternalError);
}

}  // namespace
}  // namespace cs::util
