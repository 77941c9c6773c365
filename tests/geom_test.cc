// Randomized property tests: every index structure of Section 5.3 must
// agree exactly with a brute-force scan on integer-grid point sets.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "geom/geom.h"
#include "geom/kd_tree.h"
#include "geom/minmax_tree.h"
#include "geom/range_tree.h"
#include "util/rng.h"

namespace sgl {
namespace {

struct TestWorld {
  std::vector<PointRef> points;
  std::vector<double> values;   // one payload term
  std::vector<double> values2;  // a second payload term
  std::vector<int64_t> keys;
};

TestWorld MakeWorld(int32_t n, int64_t seed, int64_t grid = 200) {
  TestWorld w;
  Xoshiro256 rng(seed);
  for (int32_t i = 0; i < n; ++i) {
    PointRef p;
    p.x = static_cast<double>(rng.NextBounded(grid));
    p.y = static_cast<double>(rng.NextBounded(grid));
    p.id = i;
    w.points.push_back(p);
    w.values.push_back(static_cast<double>(rng.NextBounded(1000)));
    w.values2.push_back(static_cast<double>(rng.NextBounded(50) - 25));
    w.keys.push_back(1000 + i);
  }
  return w;
}

Rect RandomRect(Xoshiro256* rng, int64_t grid = 200) {
  double x1 = static_cast<double>(rng->NextBounded(grid));
  double x2 = static_cast<double>(rng->NextBounded(grid));
  double y1 = static_cast<double>(rng->NextBounded(grid));
  double y2 = static_cast<double>(rng->NextBounded(grid));
  return Rect{std::min(x1, x2), std::max(x1, x2), std::min(y1, y2),
              std::max(y1, y2)};
}

// ------------------------------------------------------- LayeredRangeTree

class RangeTreeSizes : public ::testing::TestWithParam<int32_t> {};

TEST_P(RangeTreeSizes, AggregateMatchesBruteForce) {
  const int32_t n = GetParam();
  TestWorld w = MakeWorld(n, 42 + n);
  LayeredRangeTree2D tree(w.points, {w.values, w.values2});
  Xoshiro256 rng(99);
  for (int32_t q = 0; q < 200; ++q) {
    Rect rect = RandomRect(&rng);
    AggResult got = tree.Aggregate(rect);
    int64_t want_count = 0;
    double want_sum = 0.0, want_sum2 = 0.0;
    for (const PointRef& p : w.points) {
      if (rect.Contains(p.x, p.y)) {
        ++want_count;
        want_sum += w.values[p.id];
        want_sum2 += w.values2[p.id];
      }
    }
    ASSERT_EQ(want_count, got.count) << "n=" << n << " q=" << q;
    ASSERT_DOUBLE_EQ(want_sum, got.sums[0]);
    ASSERT_DOUBLE_EQ(want_sum2, got.sums[1]);
  }
}

TEST_P(RangeTreeSizes, EnumerateMatchesBruteForce) {
  const int32_t n = GetParam();
  TestWorld w = MakeWorld(n, 7 + n);
  LayeredRangeTree2D tree(w.points, {});
  Xoshiro256 rng(5);
  for (int32_t q = 0; q < 100; ++q) {
    Rect rect = RandomRect(&rng);
    std::vector<int32_t> got;
    tree.Enumerate(rect, &got);
    std::vector<int32_t> want;
    for (const PointRef& p : w.points) {
      if (rect.Contains(p.x, p.y)) want.push_back(p.id);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RangeTreeSizes,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 100, 500,
                                           1000));

TEST(RangeTree, EmptyTree) {
  LayeredRangeTree2D tree({}, {});
  AggResult r = tree.Aggregate(Rect{0, 100, 0, 100});
  EXPECT_EQ(0, r.count);
  std::vector<int32_t> ids;
  tree.Enumerate(Rect{0, 100, 0, 100}, &ids);
  EXPECT_TRUE(ids.empty());
}

TEST(RangeTree, DuplicateCoordinates) {
  // Many points stacked on the same few coordinates.
  std::vector<PointRef> pts;
  std::vector<double> vals;
  for (int32_t i = 0; i < 60; ++i) {
    pts.push_back(PointRef{static_cast<double>(i % 3),
                           static_cast<double>(i % 2), i});
    vals.push_back(1.0);
  }
  LayeredRangeTree2D tree(pts, {vals});
  AggResult all = tree.Aggregate(Rect{0, 2, 0, 1});
  EXPECT_EQ(60, all.count);
  EXPECT_DOUBLE_EQ(60.0, all.sums[0]);
  AggResult col = tree.Aggregate(Rect{1, 1, 0, 1});
  EXPECT_EQ(20, col.count);
  AggResult cell = tree.Aggregate(Rect{2, 2, 1, 1});
  EXPECT_EQ(10, cell.count);
}

TEST(RangeTree, DegenerateRects) {
  TestWorld w = MakeWorld(100, 11);
  LayeredRangeTree2D tree(w.points, {w.values});
  // A rect that is a single point must count exactly the stacked points.
  for (const PointRef& p : w.points) {
    AggResult r = tree.Aggregate(Rect{p.x, p.x, p.y, p.y});
    int64_t want = 0;
    for (const PointRef& q : w.points) {
      if (q.x == p.x && q.y == p.y) ++want;
    }
    ASSERT_EQ(want, r.count);
  }
  // Inverted/out-of-range rects are empty.
  EXPECT_EQ(0, tree.Aggregate(Rect{500, 600, 0, 200}).count);
  EXPECT_EQ(0, tree.Aggregate(Rect{10, 5, 0, 200}).count);
}

// --------------------------------------------------------- MinMaxRangeTree

class MinMaxSizes : public ::testing::TestWithParam<int32_t> {};

TEST_P(MinMaxSizes, MinMatchesBruteForce) {
  const int32_t n = GetParam();
  TestWorld w = MakeWorld(n, 13 + n);
  MinMaxRangeTree2D tree(w.points, w.values, w.keys,
                         MinMaxRangeTree2D::Mode::kMin);
  Xoshiro256 rng(3);
  for (int32_t q = 0; q < 150; ++q) {
    Rect rect = RandomRect(&rng);
    Extremum got = tree.Query(rect);
    Extremum want = Extremum::None();
    for (const PointRef& p : w.points) {
      if (rect.Contains(p.x, p.y)) {
        want = Extremum::Min(want, Extremum{w.values[p.id], w.keys[p.id]});
      }
    }
    ASSERT_EQ(want.valid(), got.valid());
    if (want.valid()) {
      ASSERT_DOUBLE_EQ(want.value, got.value);
      ASSERT_EQ(want.key, got.key);
    }
  }
}

TEST_P(MinMaxSizes, MaxMatchesBruteForce) {
  const int32_t n = GetParam();
  TestWorld w = MakeWorld(n, 29 + n);
  MinMaxRangeTree2D tree(w.points, w.values, w.keys,
                         MinMaxRangeTree2D::Mode::kMax);
  Xoshiro256 rng(31);
  for (int32_t q = 0; q < 150; ++q) {
    Rect rect = RandomRect(&rng);
    Extremum got = tree.Query(rect);
    bool found = false;
    double best = 0.0;
    int64_t best_key = 0;
    for (const PointRef& p : w.points) {
      if (!rect.Contains(p.x, p.y)) continue;
      double v = w.values[p.id];
      // Max with smaller-key tie-break.
      if (!found || v > best || (v == best && w.keys[p.id] < best_key)) {
        found = true;
        best = v;
        best_key = w.keys[p.id];
      }
    }
    ASSERT_EQ(found, got.valid());
    if (found) {
      ASSERT_DOUBLE_EQ(best, got.value);
      ASSERT_EQ(best_key, got.key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MinMaxSizes,
                         ::testing::Values(1, 2, 5, 17, 64, 200, 777));

TEST(MinMaxTree, TieBreakIsSmallestKey) {
  std::vector<PointRef> pts = {{1, 1, 0}, {2, 2, 1}, {3, 3, 2}};
  std::vector<double> vals = {5.0, 5.0, 5.0};
  std::vector<int64_t> keys = {30, 10, 20};
  MinMaxRangeTree2D tree(pts, vals, keys, MinMaxRangeTree2D::Mode::kMin);
  Extremum e = tree.Query(Rect{0, 10, 0, 10});
  EXPECT_EQ(10, e.key);
}

// ----------------------------------------------------------------- KdTree

class KdSizes : public ::testing::TestWithParam<int32_t> {};

TEST_P(KdSizes, NearestMatchesBruteForce) {
  const int32_t n = GetParam();
  TestWorld w = MakeWorld(n, 3 + n);
  KdTree2D tree(w.points, w.keys);
  Xoshiro256 rng(19);
  for (int32_t q = 0; q < 200; ++q) {
    double qx = static_cast<double>(rng.NextBounded(220) - 10);
    double qy = static_cast<double>(rng.NextBounded(220) - 10);
    int64_t exclude =
        q % 3 == 0 ? w.keys[rng.NextBounded(n)] : INT64_MIN;
    Neighbor got = tree.Nearest(qx, qy, exclude);
    Neighbor want;
    for (const PointRef& p : w.points) {
      if (w.keys[p.id] == exclude) continue;
      double d2 = SquaredDistance(qx, qy, p.x, p.y);
      if (d2 < want.dist2 || (d2 == want.dist2 && w.keys[p.id] < want.key)) {
        want.dist2 = d2;
        want.key = w.keys[p.id];
        want.id = p.id;
      }
    }
    ASSERT_EQ(want.found(), got.found());
    if (want.found()) {
      ASSERT_DOUBLE_EQ(want.dist2, got.dist2);
      ASSERT_EQ(want.key, got.key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdSizes,
                         ::testing::Values(1, 2, 9, 40, 333, 1000));

TEST(KdTree, NearestWithinRespectsBound) {
  std::vector<PointRef> pts = {{0, 0, 0}, {10, 0, 1}};
  std::vector<int64_t> keys = {100, 101};
  KdTree2D tree(pts, keys);
  // Exactly at distance^2 = 100: inclusive.
  Neighbor n1 = tree.NearestWithin(20, 0, INT64_MIN, 100.0);
  EXPECT_TRUE(n1.found());
  EXPECT_EQ(101, n1.key);
  // Just under: not found.
  Neighbor n2 = tree.NearestWithin(20, 0, INT64_MIN, 99.0);
  EXPECT_FALSE(n2.found());
}

TEST(KdTree, ExcludeOnlyPoint) {
  std::vector<PointRef> pts = {{5, 5, 0}};
  std::vector<int64_t> keys = {7};
  KdTree2D tree(pts, keys);
  EXPECT_FALSE(tree.Nearest(5, 5, 7).found());
  EXPECT_TRUE(tree.Nearest(5, 5, INT64_MIN).found());
}

// --------------------------------------------------------- LayeredKdForest

TEST(LayeredKdForest, ThresholdNearestMatchesBruteForce) {
  const int32_t n = 300;
  TestWorld w = MakeWorld(n, 55);
  std::vector<double> armor(n);
  Xoshiro256 rng(77);
  for (int32_t i = 0; i < n; ++i) {
    armor[i] = static_cast<double>(rng.NextBounded(20));
  }
  LayeredKdForest forest(w.points, w.keys, armor);
  for (int32_t q = 0; q < 150; ++q) {
    double qx = static_cast<double>(rng.NextBounded(200));
    double qy = static_cast<double>(rng.NextBounded(200));
    double threshold = static_cast<double>(rng.NextBounded(22) - 1);
    Neighbor got = forest.NearestWithAttrAtMost(qx, qy, INT64_MIN, threshold);
    Neighbor want;
    for (const PointRef& p : w.points) {
      if (armor[p.id] > threshold) continue;
      double d2 = SquaredDistance(qx, qy, p.x, p.y);
      if (d2 < want.dist2 || (d2 == want.dist2 && w.keys[p.id] < want.key)) {
        want.dist2 = d2;
        want.key = w.keys[p.id];
        want.id = p.id;
      }
    }
    ASSERT_EQ(want.found(), got.found()) << "q=" << q;
    if (want.found()) {
      ASSERT_DOUBLE_EQ(want.dist2, got.dist2);
      ASSERT_EQ(want.key, got.key);
    }
  }
}

}  // namespace
}  // namespace sgl
