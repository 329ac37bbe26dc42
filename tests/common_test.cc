#include <gtest/gtest.h>

#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace mqp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c : {StatusCode::kOk, StatusCode::kInvalidArgument,
                       StatusCode::kParseError, StatusCode::kNotFound,
                       StatusCode::kUnresolved, StatusCode::kTimeout,
                       StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeToString(c), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MQP_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r = Quarter(6);  // 6/2=3 is odd
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(8).value(), 2);
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(Half(3).value_or(-1), -1);
  EXPECT_EQ(Half(4).value_or(-1), 2);
}

TEST(ResultTest, OkStatusConversionIsInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.NextZipf(100, 1.0) < 10) ++low;
  }
  // With s=1.0, ~58% of mass is on the first 10 of 100 ranks.
  EXPECT_GT(low, kTrials / 2);
}

TEST(RngTest, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(17);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.NextZipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kTrials, 0.10, 0.03);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSkipEmpty) {
  auto parts = SplitSkipEmpty("/a//b/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "/"), "x/y/z");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("urn:X:Y", "urn:"));
  EXPECT_FALSE(StartsWith("ur", "urn:"));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64(" -5 ", &v));
  EXPECT_EQ(v, -5);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("9.99", &d));
  EXPECT_DOUBLE_EQ(d, 9.99);
  EXPECT_TRUE(ParseDouble("-1e3", &d));
  EXPECT_DOUBLE_EQ(d, -1000);
  EXPECT_FALSE(ParseDouble("ten", &d));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(10), "10");
  EXPECT_EQ(FormatDouble(9.99), "9.99");
}

// The integer type decides the accepted range; the plan codec relies on
// it to reject out-of-range attributes instead of narrowing them.
TEST(StringsTest, ParseIntegerRangeChecksItsType) {
  int i = 0;
  EXPECT_TRUE(ParseInteger(" +2147483647 ", &i));
  EXPECT_EQ(i, 2147483647);
  EXPECT_TRUE(ParseInteger("-2147483648", &i));
  EXPECT_FALSE(ParseInteger("2147483648", &i));
  EXPECT_FALSE(ParseInteger("-2147483649", &i));
  uint32_t u32 = 0;
  EXPECT_TRUE(ParseInteger("4294967295", &u32));
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_FALSE(ParseInteger("4294967296", &u32));
  EXPECT_FALSE(ParseInteger("-1", &u32));
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseInteger("18446744073709551615", &u64));
  EXPECT_EQ(u64, 18446744073709551615ull);
  EXPECT_FALSE(ParseInteger("18446744073709551616", &u64));
  EXPECT_FALSE(ParseInteger("-5", &u64));
  EXPECT_FALSE(ParseInteger("5x", &u64));
  EXPECT_FALSE(ParseInteger("", &u64));
  EXPECT_EQ(u64, 18446744073709551615ull);  // untouched on failure
}

}  // namespace
}  // namespace mqp
