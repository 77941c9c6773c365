#include "geom/minmax_tree.h"

#include <algorithm>
#include <numeric>

namespace sgl {

void MinMaxRangeTree2D::Rebuild(const std::vector<PointRef>& points,
                                const std::vector<double>& values,
                                const std::vector<int64_t>& keys, Mode mode) {
  mode_ = mode;
  n_ = static_cast<int32_t>(points.size());
  if (n_ == 0) return;
  ResizeRetained(&order_, n_);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](int32_t a, int32_t b) {
    if (points[a].x != points[b].x) return points[a].x < points[b].x;
    if (points[a].y != points[b].y) return points[a].y < points[b].y;
    return points[a].id < points[b].id;
  });
  ResizeRetained(&xs_sorted_, n_);
  ResizeRetained(&ys_of_, n_);
  ResizeRetained(&entry_of_, n_);
  const double sign = mode_ == Mode::kMin ? 1.0 : -1.0;
  for (int32_t i = 0; i < n_; ++i) {
    const PointRef& p = points[order_[i]];
    xs_sorted_[i] = p.x;
    ys_of_[i] = p.y;
    entry_of_[i] = Extremum{sign * values[p.id], keys[p.id]};
  }
  const int64_t entries = MergeTreeEntries(n_);
  ResizeRetained(&off_, 2 * n_ - 1);
  ResizeRetained(&ys_, entries);
  ResizeRetained(&seg_, 2 * entries);
  Build(0, 0, n_, 0);
}

int64_t MinMaxRangeTree2D::Build(int32_t id, int32_t lo, int32_t hi,
                                 int64_t off) {
  off_[id] = off;
  const int32_t len = hi - lo;
  double* ys = &ys_[off];
  Extremum* seg = &seg_[2 * off];
  int64_t end = off + len;
  if (len == 1) {
    ys[0] = ys_of_[lo];
    seg[1] = entry_of_[lo];
  } else {
    const int32_t mid = lo + len / 2;
    const int64_t loff = end;
    const int64_t roff = Build(id + 1, lo, mid, loff);
    end = Build(id + 2 * (mid - lo), mid, hi, roff);
    // Merge children's y-lists, writing each entry straight from the
    // child's segment-tree leaf into this node's. Per-node binary search
    // replaces cascading bridges here; the probe is O(log^2 n) either way
    // because of the per-node segment tree descent.
    const int32_t lsize = mid - lo;
    const int32_t rsize = hi - mid;
    const double* lys = &ys_[loff];
    const double* rys = &ys_[roff];
    const Extremum* lleaf = &seg_[2 * loff + lsize];
    const Extremum* rleaf = &seg_[2 * roff + rsize];
    Extremum* leaf = seg + len;
    int32_t li = 0, ri = 0;
    for (int32_t p = 0; p < len; ++p) {
      const bool take_left =
          li < lsize && (ri >= rsize || lys[li] <= rys[ri]);
      if (take_left) {
        ys[p] = lys[li];
        leaf[p] = lleaf[li++];
      } else {
        ys[p] = rys[ri];
        leaf[p] = rleaf[ri++];
      }
    }
  }

  // Bottom-up segment tree over the y-ordered leaves: seg[p] =
  // min(seg[2p], seg[2p+1]); seg[0] is unused.
  for (int32_t p = len - 1; p >= 1; --p) {
    seg[p] = Extremum::Min(seg[2 * p], seg[2 * p + 1]);
  }
  return end;
}

Extremum MinMaxRangeTree2D::Query(const Rect& rect) const {
  Extremum best = Extremum::None();
  if (n_ == 0) return best;
  QueryRec(0, 0, n_, rect, &best);
  if (best.valid() && mode_ == Mode::kMax) best.value = -best.value;
  return best;
}

void MinMaxRangeTree2D::QueryRec(int32_t id, int32_t lo, int32_t hi,
                                 const Rect& rect, Extremum* best) const {
  const double node_xlo = xs_sorted_[lo];
  const double node_xhi = xs_sorted_[hi - 1];
  if (node_xlo > rect.xhi || node_xhi < rect.xlo) return;
  const int32_t len = hi - lo;
  if ((rect.xlo <= node_xlo && node_xhi <= rect.xhi) || len == 1) {
    // A leaf that overlaps the x interval is contained in it (its x
    // extent is a single coordinate). Answer the node's y slice from its
    // segment tree.
    const double* ys = &ys_[off_[id]];
    const Extremum* seg = &seg_[2 * off_[id]];
    const int32_t plo =
        static_cast<int32_t>(std::lower_bound(ys, ys + len, rect.ylo) - ys);
    const int32_t phi =
        static_cast<int32_t>(std::upper_bound(ys, ys + len, rect.yhi) - ys);
    if (plo >= phi) return;
    Extremum node_best = Extremum::None();
    for (int32_t l = plo + len, r = phi + len; l < r; l >>= 1, r >>= 1) {
      if (l & 1) node_best = Extremum::Min(node_best, seg[l++]);
      if (r & 1) node_best = Extremum::Min(node_best, seg[--r]);
    }
    *best = Extremum::Min(*best, node_best);
    return;
  }
  const int32_t mid = lo + len / 2;
  QueryRec(id + 1, lo, mid, rect, best);
  QueryRec(id + 2 * (mid - lo), mid, hi, rect, best);
}

}  // namespace sgl
