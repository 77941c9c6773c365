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

// ------------------------------------------------------- rebuild in place

// One tree object of each kind is rebuilt over a larger point set, a
// smaller one, an empty one and one of stacked duplicates. After each
// rebuild every probe must equal both a freshly built tree and brute
// force, so storage kept from an earlier build can never leak into a
// later one.
TEST(RebuildInPlace, EveryProbeMatchesAFreshTreeAndBruteForce) {
  struct Step {
    int32_t n;
    int64_t grid;
  };
  const Step steps[] = {{700, 200}, {90, 200}, {0, 200}, {150, 3}};
  LayeredRangeTree2D range;
  MinMaxRangeTree2D extremum;
  KdTree2D kd;
  Xoshiro256 rng(2024);
  int32_t step_index = 0;
  for (const Step& step : steps) {
    SCOPED_TRACE(::testing::Message() << "step " << step_index);
    const TestWorld w = MakeWorld(step.n, 500 + step_index, step.grid);
    const std::vector<std::vector<double>> terms = {w.values, w.values2};
    const MinMaxRangeTree2D::Mode mode = step_index % 2 == 0
                                             ? MinMaxRangeTree2D::Mode::kMin
                                             : MinMaxRangeTree2D::Mode::kMax;
    ++step_index;
    range.Rebuild(w.points, terms);
    extremum.Rebuild(w.points, w.values, w.keys, mode);
    kd.Rebuild(w.points, w.keys);
    const LayeredRangeTree2D fresh_range(w.points, terms);
    const MinMaxRangeTree2D fresh_extremum(w.points, w.values, w.keys, mode);
    const KdTree2D fresh_kd(w.points, w.keys);
    ASSERT_EQ(step.n, range.num_points());
    ASSERT_EQ(step.n, extremum.num_points());
    ASSERT_EQ(step.n, kd.num_points());

    for (int32_t q = 0; q < 120; ++q) {
      const Rect rect = RandomRect(&rng, step.grid + 2);
      int64_t count = 0;
      double sum = 0.0, sum2 = 0.0;
      Extremum best = Extremum::None();
      std::vector<int32_t> inside;
      const double sign = mode == MinMaxRangeTree2D::Mode::kMin ? 1.0 : -1.0;
      for (const PointRef& p : w.points) {
        if (!rect.Contains(p.x, p.y)) continue;
        ++count;
        sum += w.values[p.id];
        sum2 += w.values2[p.id];
        best = Extremum::Min(best,
                             Extremum{sign * w.values[p.id], w.keys[p.id]});
        inside.push_back(p.id);
      }
      if (best.valid()) best.value *= sign;

      // Aggregate(rect), both columns.
      const AggResult all = range.Aggregate(rect);
      const AggResult fresh_all = fresh_range.Aggregate(rect);
      ASSERT_EQ(count, all.count) << "q=" << q;
      ASSERT_EQ(sum, all.sums[0]);
      ASSERT_EQ(sum2, all.sums[1]);
      ASSERT_EQ(fresh_all.count, all.count);
      ASSERT_EQ(fresh_all.sums, all.sums);
      // Aggregate(rect, cols), the second column alone.
      const int32_t col = 1;
      double got_sum2 = 0.0, fresh_sum2 = 0.0;
      ASSERT_EQ(count, range.Aggregate(rect, &col, 1, &got_sum2));
      ASSERT_EQ(count, fresh_range.Aggregate(rect, &col, 1, &fresh_sum2));
      ASSERT_EQ(sum2, got_sum2);
      ASSERT_EQ(fresh_sum2, got_sum2);
      // Enumerate: the fresh tree's exact order, brute force's set.
      std::vector<int32_t> got, fresh;
      range.Enumerate(rect, &got);
      fresh_range.Enumerate(rect, &fresh);
      ASSERT_EQ(fresh, got);
      std::sort(got.begin(), got.end());
      std::sort(inside.begin(), inside.end());
      ASSERT_EQ(inside, got);

      // Query.
      const Extremum e = extremum.Query(rect);
      const Extremum fresh_e = fresh_extremum.Query(rect);
      ASSERT_EQ(best.valid(), e.valid());
      ASSERT_EQ(fresh_e.valid(), e.valid());
      if (best.valid()) {
        ASSERT_EQ(best.value, e.value);
        ASSERT_EQ(best.key, e.key);
        ASSERT_EQ(fresh_e.value, e.value);
        ASSERT_EQ(fresh_e.key, e.key);
      }

      // Nearest, NearestWithin and NearestInRect.
      const double qx = static_cast<double>(rng.NextBounded(step.grid + 4)) - 2;
      const double qy = static_cast<double>(rng.NextBounded(step.grid + 4)) - 2;
      const int64_t exclude =
          step.n > 0 && q % 3 == 0 ? w.keys[rng.NextBounded(step.n)]
                                   : INT64_MIN;
      const double max_d2 = static_cast<double>(rng.NextBounded(400));
      Neighbor near, within, in_rect;
      for (const PointRef& p : w.points) {
        const int64_t key = w.keys[p.id];
        if (key == exclude) continue;
        const double d2 = SquaredDistance(qx, qy, p.x, p.y);
        auto offer = [&](Neighbor* n) {
          if (d2 < n->dist2 || (d2 == n->dist2 && key < n->key)) {
            *n = Neighbor{key, d2, p.id};
          }
        };
        offer(&near);
        if (d2 <= max_d2) offer(&within);
        if (rect.Contains(p.x, p.y)) offer(&in_rect);
      }
      auto expect_same = [](const Neighbor& want, const Neighbor& got) {
        ASSERT_EQ(want.found(), got.found());
        if (!want.found()) return;
        ASSERT_EQ(want.dist2, got.dist2);
        ASSERT_EQ(want.key, got.key);
        ASSERT_EQ(want.id, got.id);
      };
      const Neighbor got_near = kd.Nearest(qx, qy, exclude);
      expect_same(near, got_near);
      expect_same(fresh_kd.Nearest(qx, qy, exclude), got_near);
      const Neighbor got_within = kd.NearestWithin(qx, qy, exclude, max_d2);
      expect_same(within, got_within);
      expect_same(fresh_kd.NearestWithin(qx, qy, exclude, max_d2), got_within);
      const Neighbor got_rect = kd.NearestInRect(qx, qy, exclude, rect);
      expect_same(in_rect, got_rect);
      expect_same(fresh_kd.NearestInRect(qx, qy, exclude, rect), got_rect);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sgl
