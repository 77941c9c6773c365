#include "geom/range_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sgl {

void LayeredRangeTree2D::Rebuild(
    const std::vector<PointRef>& points,
    const std::vector<std::vector<double>>& terms) {
  n_ = static_cast<int32_t>(points.size());
  m_ = static_cast<int32_t>(terms.size());
  stride_ = m_ + 1;
  ResizeRetained(&all_cols_, m_);
  std::iota(all_cols_.begin(), all_cols_.end(), 0);
  if (n_ == 0) return;

  // Terms are keyed by PointRef::id; flatten them for cache-friendly
  // access during prefix construction.
  if (m_ > 0) {
    int32_t max_id = 0;
    for (const PointRef& p : points) max_id = std::max(max_id, p.id);
    ResizeRetained(&term_of_, static_cast<size_t>(max_id + 1) * m_);
    for (int32_t t = 0; t < m_; ++t) {
      assert(static_cast<int32_t>(terms[t].size()) > max_id);
      for (const PointRef& p : points) {
        term_of_[static_cast<size_t>(p.id) * m_ + t] = terms[t][p.id];
      }
    }
  }

  // Sort point positions by (x, y, id) — the secondary keys make the
  // structure (and therefore enumeration order) deterministic.
  ResizeRetained(&order_, n_);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](int32_t a, int32_t b) {
    if (points[a].x != points[b].x) return points[a].x < points[b].x;
    if (points[a].y != points[b].y) return points[a].y < points[b].y;
    return points[a].id < points[b].id;
  });
  ResizeRetained(&xs_sorted_, n_);
  ResizeRetained(&ys_of_, n_);
  ResizeRetained(&ids_of_, n_);
  for (int32_t i = 0; i < n_; ++i) {
    const PointRef& p = points[order_[i]];
    xs_sorted_[i] = p.x;
    ys_of_[i] = p.y;
    ids_of_[i] = p.id;
  }
  const int32_t nodes = 2 * n_ - 1;
  const int64_t entries = MergeTreeEntries(n_);
  const int64_t rows = entries + nodes;
  ResizeRetained(&off_, nodes);
  ResizeRetained(&ys_, entries);
  ResizeRetained(&ids_, entries);
  ResizeRetained(&bridge_left_, rows);
  ResizeRetained(&prefix_, static_cast<size_t>(rows) * stride_);
  Build(0, 0, n_, 0);
}

int64_t LayeredRangeTree2D::Build(int32_t id, int32_t lo, int32_t hi,
                                  int64_t off) {
  off_[id] = off;
  const int32_t len = hi - lo;
  double* ys = &ys_[off];
  int32_t* ids = &ids_[off];
  int64_t end = off + len;
  if (len == 1) {
    ys[0] = ys_of_[lo];
    ids[0] = ids_of_[lo];
  } else {
    const int32_t mid = lo + len / 2;
    const int64_t loff = end;
    const int64_t roff = Build(id + 1, lo, mid, loff);
    end = Build(id + 2 * (mid - lo), mid, hi, roff);
    // Merge children's y-lists (a bottom-up mergesort) and record the
    // fractional-cascading bridge: bridge[p] = number of left-child
    // entries strictly before merged position p, which equals the
    // lower_bound position of any y value whose root lower_bound is p.
    const double* lys = &ys_[loff];
    const int32_t* lids = &ids_[loff];
    const double* rys = &ys_[roff];
    const int32_t* rids = &ids_[roff];
    const int32_t lsize = mid - lo;
    const int32_t rsize = hi - mid;
    int32_t* bridge = &bridge_left_[off + id];
    int32_t li = 0, ri = 0;
    for (int32_t p = 0; p < len; ++p) {
      bridge[p] = li;
      bool take_left;
      if (li >= lsize) {
        take_left = false;
      } else if (ri >= rsize) {
        take_left = true;
      } else if (lys[li] != rys[ri]) {
        take_left = lys[li] < rys[ri];
      } else {
        take_left = lids[li] < rids[ri];
      }
      if (take_left) {
        ys[p] = lys[li];
        ids[p] = lids[li++];
      } else {
        ys[p] = rys[ri];
        ids[p] = rids[ri++];
      }
    }
    bridge[len] = li;
  }

  // Prefix aggregates over the y-sorted list (Figure 8): row i holds the
  // aggregate of the first i points; slot m_ carries the count.
  double* prefix = &prefix_[static_cast<size_t>(off + id) * stride_];
  std::fill(prefix, prefix + stride_, 0.0);
  for (int32_t i = 0; i < len; ++i) {
    const double* prev = prefix + static_cast<size_t>(i) * stride_;
    double* dst = prefix + static_cast<size_t>(i + 1) * stride_;
    const double* terms =
        m_ > 0 ? &term_of_[static_cast<size_t>(ids[i]) * m_] : nullptr;
    for (int32_t t = 0; t < m_; ++t) dst[t] = prev[t] + terms[t];
    dst[m_] = prev[m_] + 1.0;
  }
  return end;
}

void LayeredRangeTree2D::RootSpan(const Rect& rect, int32_t* plo,
                                  int32_t* phi) const {
  const double* ys = ys_.data();
  *plo = static_cast<int32_t>(std::lower_bound(ys, ys + n_, rect.ylo) - ys);
  *phi = static_cast<int32_t>(std::upper_bound(ys, ys + n_, rect.yhi) - ys);
}

AggResult LayeredRangeTree2D::Aggregate(const Rect& rect) const {
  AggResult acc(m_);
  acc.count = Aggregate(rect, all_cols_.data(), m_, acc.sums.data());
  return acc;
}

int64_t LayeredRangeTree2D::Aggregate(const Rect& rect, const int32_t* cols,
                                      int32_t k, double* sums) const {
  if (n_ == 0) return 0;
  // One binary search at the root; bridges do the rest (fractional
  // cascading).
  int32_t plo, phi;
  RootSpan(rect, &plo, &phi);
  ProbeAcc acc{cols, k, sums, 0};
  AggregateRec(0, 0, n_, rect, plo, phi, &acc);
  return acc.count;
}

void LayeredRangeTree2D::AggregateRec(int32_t id, int32_t lo, int32_t hi,
                                      const Rect& rect, int32_t plo,
                                      int32_t phi, ProbeAcc* acc) const {
  if (plo >= phi) return;
  const double node_xlo = xs_sorted_[lo];
  const double node_xhi = xs_sorted_[hi - 1];
  if (node_xlo > rect.xhi || node_xhi < rect.xlo) return;
  const int64_t row = off_[id] + id;
  if ((rect.xlo <= node_xlo && node_xhi <= rect.xhi) || hi - lo == 1) {
    // A leaf that overlaps the x interval is contained in it (its x
    // extent is a single coordinate), so both cases take the O(1)
    // prefix-aggregate slice.
    const double* hi_p = &prefix_[static_cast<size_t>(row + phi) * stride_];
    const double* lo_p = &prefix_[static_cast<size_t>(row + plo) * stride_];
    acc->count += static_cast<int64_t>(hi_p[m_] - lo_p[m_]);
    for (int32_t i = 0; i < acc->k; ++i) {
      const int32_t t = acc->cols[i];
      acc->sums[i] += hi_p[t] - lo_p[t];
    }
    return;
  }
  const int32_t mid = lo + (hi - lo) / 2;
  const int32_t* bridge = &bridge_left_[row];
  AggregateRec(id + 1, lo, mid, rect, bridge[plo], bridge[phi], acc);
  AggregateRec(id + 2 * (mid - lo), mid, hi, rect, plo - bridge[plo],
               phi - bridge[phi], acc);
}

void LayeredRangeTree2D::Enumerate(const Rect& rect,
                                   std::vector<int32_t>* out) const {
  if (n_ == 0) return;
  int32_t plo, phi;
  RootSpan(rect, &plo, &phi);
  EnumerateRec(0, 0, n_, rect, plo, phi, out);
}

void LayeredRangeTree2D::EnumerateRec(int32_t id, int32_t lo, int32_t hi,
                                      const Rect& rect, int32_t plo,
                                      int32_t phi,
                                      std::vector<int32_t>* out) const {
  if (plo >= phi) return;
  const double node_xlo = xs_sorted_[lo];
  const double node_xhi = xs_sorted_[hi - 1];
  if (node_xlo > rect.xhi || node_xhi < rect.xlo) return;
  if ((rect.xlo <= node_xlo && node_xhi <= rect.xhi) || hi - lo == 1) {
    const int32_t* ids = &ids_[off_[id]];
    for (int32_t i = plo; i < phi; ++i) out->push_back(ids[i]);
    return;
  }
  const int32_t mid = lo + (hi - lo) / 2;
  const int32_t* bridge = &bridge_left_[off_[id] + id];
  EnumerateRec(id + 1, lo, mid, rect, bridge[plo], bridge[phi], out);
  EnumerateRec(id + 2 * (mid - lo), mid, hi, rect, plo - bridge[plo],
               phi - bridge[phi], out);
}

}  // namespace sgl
