#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace sgl {
namespace {

TEST(Status, OkIsOk) {
  Status st = Status::OK();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ("OK", st.ToString());
}

TEST(Status, ErrorCarriesMessage) {
  Status st = Status::ParseError("unexpected token '", ";", "' at line ", 3);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kParseError, st.code());
  EXPECT_EQ("Parse error: unexpected token ';' at line 3", st.ToString());
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kAnalysisError, StatusCode::kPlanError,
        StatusCode::kExecutionError, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE("Unknown", StatusCodeName(c));
  }
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::Invalid("odd: ", x);
  return x / 2;
}

Status UseHalf(int x, int* out) {
  SGL_ASSIGN_OR_RETURN(*out, HalfOf(x));
  return Status::OK();
}

TEST(Result, ValueAndError) {
  Result<int> ok = HalfOf(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(5, *ok);

  Result<int> bad = HalfOf(7);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, bad.status().code());
}

TEST(Result, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(4, out);
  EXPECT_FALSE(UseHalf(9, &out).ok());
}

TEST(TickRandom, DeterministicWithinTick) {
  TickRandom r(12345, 7);
  EXPECT_EQ(r.Draw(1, 0), r.Draw(1, 0));
  EXPECT_EQ(r.DrawBounded(3, 2, 100), r.DrawBounded(3, 2, 100));
}

TEST(TickRandom, VariesAcrossTicksUnitsAndIndexes) {
  TickRandom t0(12345, 0);
  TickRandom t1(12345, 1);
  EXPECT_NE(t0.Draw(1, 0), t1.Draw(1, 0));  // across ticks
  EXPECT_NE(t0.Draw(1, 0), t0.Draw(2, 0));  // across units
  EXPECT_NE(t0.Draw(1, 0), t0.Draw(1, 1));  // across indexes
}

TEST(TickRandom, BoundedIsInRange) {
  TickRandom r(99, 3);
  for (int64_t i = 0; i < 1000; ++i) {
    int64_t v = r.DrawBounded(i, 0, 20);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(Xoshiro, ReproducibleAndCoversRange) {
  Xoshiro256 a(42), b(42);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    int64_t va = a.NextBounded(10);
    EXPECT_EQ(va, b.NextBounded(10));
    seen.insert(va);
    double d = a.NextDouble();
    b.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(10u, seen.size());
}

TEST(Xoshiro, NextInRangeInclusive) {
  Xoshiro256 r(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.NextInRange(-2, 2));
  EXPECT_EQ(5u, seen.size());
}

TEST(StringUtil, JoinRepeatFormat) {
  EXPECT_EQ("a, b, c", Join({"a", "b", "c"}, ", "));
  EXPECT_EQ("", Join({}, ","));
  EXPECT_EQ("--", Repeat("-", 2));
  EXPECT_EQ("", Repeat("x", 0));
  EXPECT_EQ("1.500", FormatDouble(1.5));
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

}  // namespace
}  // namespace sgl
