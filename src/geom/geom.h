// Common geometric types shared by the index structures of Section 5.3.
#ifndef SGL_GEOM_GEOM_H_
#define SGL_GEOM_GEOM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace sgl {

/// Closed axis-aligned rectangle [xlo, xhi] x [ylo, yhi]. Game scripts
/// probe rectangles because (Section 5.3.1) games use boxes — or L1 circles,
/// which are rotated boxes — for range and area-of-effect tests.
struct Rect {
  double xlo = 0.0;
  double xhi = 0.0;
  double ylo = 0.0;
  double yhi = 0.0;

  bool Contains(double x, double y) const {
    return x >= xlo && x <= xhi && y >= ylo && y <= yhi;
  }

  /// The box of half-extents (rx, ry) centred on (cx, cy).
  static Rect Around(double cx, double cy, double rx, double ry) {
    return Rect{cx - rx, cx + rx, cy - ry, cy + ry};
  }
};

/// A point with an application payload index. All index structures refer
/// to input points by their position `id` in the build arrays, so callers
/// can attach arbitrary per-point data (unit rows, aggregate terms).
struct PointRef {
  double x = 0.0;
  double y = 0.0;
  int32_t id = 0;
};

/// An (ordering value, tie-break key) pair for extremum indexes. Ordering
/// is lexicographic so results never depend on scan or sweep order.
struct Extremum {
  double value = std::numeric_limits<double>::infinity();
  int64_t key = std::numeric_limits<int64_t>::max();

  bool operator<(const Extremum& o) const {
    if (value != o.value) return value < o.value;
    return key < o.key;
  }
  bool valid() const {
    return value != std::numeric_limits<double>::infinity() ||
           key != std::numeric_limits<int64_t>::max();
  }
  static Extremum None() { return Extremum{}; }
  static Extremum Min(const Extremum& a, const Extremum& b) {
    return a < b ? a : b;
  }
};

/// Squared Euclidean distance (exact for integer-valued coordinates).
inline double SquaredDistance(double ax, double ay, double bx, double by) {
  double dx = ax - bx;
  double dy = ay - by;
  return dx * dx + dy * dy;
}

/// The y-list entries of a merge tree over `n` points split at
/// mid = lo + (hi-lo)/2 (LayeredRangeTree2D, MinMaxRangeTree2D): every
/// node lists its subtree's points, so S(1) = 1 and
/// S(k) = k + S(k/2) + S(k - k/2). It sizes a tree's flat arrays, and
/// it places a right subtree without building the left one first: at
/// off + (hi-lo) + S(mid-lo). Runs in O(log n) on the pair
/// (S(j), S(j+1)), since both halves of k derive from j = k/2.
inline std::pair<int64_t, int64_t> MergeTreeEntryPair(int64_t k) {
  if (k == 0) return {0, 1};
  if (k == 1) return {1, 4};
  const int64_t j = k / 2;
  const auto [sj, sj1] = MergeTreeEntryPair(j);
  const int64_t odd = 2 * j + 1 + sj + sj1;  // S(2j + 1)
  if (k % 2 == 0) return {2 * j + 2 * sj, odd};
  return {odd, 2 * j + 2 + 2 * sj1};
}
inline int64_t MergeTreeEntries(int32_t n) {
  return MergeTreeEntryPair(n).first;
}

/// Size `v` to `n` elements for a caller that overwrites them, keeping
/// the storage of earlier fills: a short capacity grows to n + n/2, so a
/// buffer refilled every tick at a slowly growing size reallocates a few
/// times, not every tick. It never shrinks.
template <typename T>
void ResizeRetained(std::vector<T>* v, std::size_t n) {
  if (v->capacity() < n) {
    v->clear();
    v->reserve(n + n / 2);
  }
  v->resize(n);
}

}  // namespace sgl

#endif  // SGL_GEOM_GEOM_H_
