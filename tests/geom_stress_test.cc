// Adversarial-distribution sweeps for the Section 5.3 index structures.
//
// The uniform-random worlds of geom_test.cc miss the distributions games
// actually produce: dense combat clusters (the paper's motivating case —
// "if the units are all clustered together, as is often the case in
// combat"), single-file formations (collinear points), duplicate
// positions after collision-free stacking, and huge coordinates. Every
// structure must still agree exactly with brute force.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "geom/kd_tree.h"
#include "geom/minmax_tree.h"
#include "geom/range_tree.h"
#include "util/rng.h"

namespace sgl {
namespace {

enum class Distribution {
  kTightCluster,   // everything inside a 6x6 patch
  kTwoArmies,      // two dense blobs far apart
  kCollinearX,     // a single row (y constant)
  kCollinearY,     // a single column (x constant)
  kDuplicates,     // many units stacked on few cells
  kHugeCoords,     // coordinates around 2^40
};

struct World {
  std::vector<PointRef> points;
  std::vector<double> values;
  std::vector<int64_t> keys;
  double lo = 0.0, hi = 0.0;  // probe window
};

World MakeWorld(Distribution dist, int32_t n, uint64_t seed) {
  World w;
  Xoshiro256 rng(seed);
  auto add = [&](double x, double y) {
    int32_t id = static_cast<int32_t>(w.points.size());
    w.points.push_back(PointRef{x, y, id});
    w.values.push_back(static_cast<double>(rng.NextBounded(500)));
    w.keys.push_back(10'000 + id);
  };
  switch (dist) {
    case Distribution::kTightCluster:
      for (int32_t i = 0; i < n; ++i) {
        add(double(rng.NextBounded(6)), double(rng.NextBounded(6)));
      }
      w.lo = -2;
      w.hi = 8;
      break;
    case Distribution::kTwoArmies:
      for (int32_t i = 0; i < n; ++i) {
        double base = i % 2 == 0 ? 0.0 : 1000.0;
        add(base + double(rng.NextBounded(12)),
            base + double(rng.NextBounded(12)));
      }
      w.lo = -5;
      w.hi = 1015;
      break;
    case Distribution::kCollinearX:
      for (int32_t i = 0; i < n; ++i) add(double(i), 7.0);
      w.lo = -1;
      w.hi = n + 1;
      break;
    case Distribution::kCollinearY:
      for (int32_t i = 0; i < n; ++i) add(7.0, double(i));
      w.lo = -1;
      w.hi = n + 1;
      break;
    case Distribution::kDuplicates:
      for (int32_t i = 0; i < n; ++i) {
        add(double(rng.NextBounded(3)), double(rng.NextBounded(3)));
      }
      w.lo = -1;
      w.hi = 4;
      break;
    case Distribution::kHugeCoords: {
      double base = 1099511627776.0;  // 2^40: sums stay exact in doubles
      for (int32_t i = 0; i < n; ++i) {
        add(base + double(rng.NextBounded(50)),
            base + double(rng.NextBounded(50)));
      }
      w.lo = base - 2;
      w.hi = base + 52;
      break;
    }
  }
  return w;
}

Rect RandomRect(const World& w, Xoshiro256* rng) {
  double span = w.hi - w.lo;
  double x1 = w.lo + rng->NextDouble() * span;
  double x2 = w.lo + rng->NextDouble() * span;
  double y1 = w.lo + rng->NextDouble() * span;
  double y2 = w.lo + rng->NextDouble() * span;
  return Rect{std::min(x1, x2), std::max(x1, x2), std::min(y1, y2),
              std::max(y1, y2)};
}

class Distributions
    : public ::testing::TestWithParam<std::tuple<Distribution, int32_t>> {};

TEST_P(Distributions, RangeTreeAggregates) {
  auto [dist, n] = GetParam();
  World w = MakeWorld(dist, n, 17);
  LayeredRangeTree2D tree(w.points, {w.values});
  Xoshiro256 rng(3);
  for (int32_t q = 0; q < 120; ++q) {
    Rect rect = RandomRect(w, &rng);
    AggResult got = tree.Aggregate(rect);
    int64_t want_count = 0;
    double want_sum = 0;
    for (const PointRef& p : w.points) {
      if (rect.Contains(p.x, p.y)) {
        ++want_count;
        want_sum += w.values[p.id];
      }
    }
    ASSERT_EQ(want_count, got.count);
    ASSERT_DOUBLE_EQ(want_sum, got.sums[0]);
  }
}

TEST_P(Distributions, MinMaxTree) {
  auto [dist, n] = GetParam();
  World w = MakeWorld(dist, n, 29);
  MinMaxRangeTree2D tree(w.points, w.values, w.keys,
                         MinMaxRangeTree2D::Mode::kMin);
  Xoshiro256 rng(31);
  for (int32_t q = 0; q < 120; ++q) {
    Rect rect = RandomRect(w, &rng);
    Extremum got = tree.Query(rect);
    Extremum want = Extremum::None();
    for (const PointRef& p : w.points) {
      if (rect.Contains(p.x, p.y)) {
        want = Extremum::Min(want, Extremum{w.values[p.id], w.keys[p.id]});
      }
    }
    ASSERT_EQ(want.valid(), got.valid());
    if (want.valid()) {
      ASSERT_EQ(want.key, got.key);
      ASSERT_DOUBLE_EQ(want.value, got.value);
    }
  }
}

TEST_P(Distributions, KdNearest) {
  auto [dist, n] = GetParam();
  World w = MakeWorld(dist, n, 41);
  KdTree2D tree(w.points, w.keys);
  Xoshiro256 rng(43);
  for (int32_t q = 0; q < 150; ++q) {
    double span = w.hi - w.lo;
    double qx = w.lo + rng.NextDouble() * span;
    double qy = w.lo + rng.NextDouble() * span;
    int64_t exclude = q % 2 == 0 ? w.keys[rng.NextBounded(n)] : INT64_MIN;
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
      ASSERT_EQ(want.key, got.key);
      ASSERT_DOUBLE_EQ(want.dist2, got.dist2);
    }
  }
}

TEST_P(Distributions, KdNearestInRect) {
  auto [dist, n] = GetParam();
  World w = MakeWorld(dist, n, 53);
  KdTree2D tree(w.points, w.keys);
  Xoshiro256 rng(59);
  for (int32_t q = 0; q < 120; ++q) {
    double span = w.hi - w.lo;
    double qx = w.lo + rng.NextDouble() * span;
    double qy = w.lo + rng.NextDouble() * span;
    Rect rect = RandomRect(w, &rng);
    Neighbor got = tree.NearestInRect(qx, qy, INT64_MIN, rect);
    Neighbor want;
    for (const PointRef& p : w.points) {
      if (!rect.Contains(p.x, p.y)) continue;
      double d2 = SquaredDistance(qx, qy, p.x, p.y);
      if (d2 < want.dist2 || (d2 == want.dist2 && w.keys[p.id] < want.key)) {
        want.dist2 = d2;
        want.key = w.keys[p.id];
        want.id = p.id;
      }
    }
    ASSERT_EQ(want.found(), got.found());
    if (want.found()) {
      ASSERT_EQ(want.key, got.key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Distributions,
    ::testing::Combine(::testing::Values(Distribution::kTightCluster,
                                         Distribution::kTwoArmies,
                                         Distribution::kCollinearX,
                                         Distribution::kCollinearY,
                                         Distribution::kDuplicates,
                                         Distribution::kHugeCoords),
                       ::testing::Values(1, 2, 17, 128, 700)));

}  // namespace
}  // namespace sgl
