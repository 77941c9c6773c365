#include "geom/range_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sgl {

LayeredRangeTree2D::LayeredRangeTree2D(
    const std::vector<PointRef>& points,
    const std::vector<std::vector<double>>& terms) {
  n_ = static_cast<int32_t>(points.size());
  m_ = static_cast<int32_t>(terms.size());
  stride_ = m_ + 1;
  all_cols_.resize(m_);
  std::iota(all_cols_.begin(), all_cols_.end(), 0);
  if (n_ == 0) return;

  // Terms are keyed by PointRef::id; flatten them for cache-friendly
  // access during prefix construction.
  if (m_ > 0) {
    int32_t max_id = 0;
    for (const PointRef& p : points) max_id = std::max(max_id, p.id);
    term_of_.assign(static_cast<size_t>(max_id + 1) * m_, 0.0);
    for (int32_t t = 0; t < m_; ++t) {
      assert(static_cast<int32_t>(terms[t].size()) > max_id);
      for (const PointRef& p : points) {
        term_of_[static_cast<size_t>(p.id) * m_ + t] = terms[t][p.id];
      }
    }
  }

  // Sort point positions by (x, y, id) — the secondary keys make the
  // structure (and therefore enumeration order) deterministic.
  std::vector<int32_t> order(n_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    if (points[a].x != points[b].x) return points[a].x < points[b].x;
    if (points[a].y != points[b].y) return points[a].y < points[b].y;
    return points[a].id < points[b].id;
  });
  xs_sorted_.resize(n_);
  ys_of_.resize(n_);
  ids_of_.resize(n_);
  for (int32_t i = 0; i < n_; ++i) {
    const PointRef& p = points[order[i]];
    xs_sorted_[i] = p.x;
    ys_of_[i] = p.y;
    ids_of_[i] = p.id;
  }
  nodes_.reserve(static_cast<size_t>(2 * n_));
  root_ = Build(0, n_);
}

int32_t LayeredRangeTree2D::Build(int32_t lo, int32_t hi) {
  int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].lo = lo;
  nodes_[node_id].hi = hi;

  if (hi - lo == 1) {
    Node& node = nodes_[node_id];
    node.ys = {ys_of_[lo]};
    node.ids = {ids_of_[lo]};
  } else {
    int32_t mid = lo + (hi - lo) / 2;
    int32_t left = Build(lo, mid);
    int32_t right = Build(mid, hi);
    Node& node = nodes_[node_id];
    node.left = left;
    node.right = right;
    // Merge children's y-lists (a bottom-up mergesort) and record the
    // fractional-cascading bridges: bridge_left[p] = number of left-child
    // entries strictly before merged position p, which equals the
    // lower_bound position of any y value whose root lower_bound is p.
    const Node& ln = nodes_[left];
    const Node& rn = nodes_[right];
    int32_t total = hi - lo;
    node.ys.reserve(total);
    node.ids.reserve(total);
    node.bridge_left.reserve(total + 1);
    node.bridge_right.reserve(total + 1);
    int32_t li = 0, ri = 0;
    const int32_t lsize = static_cast<int32_t>(ln.ys.size());
    const int32_t rsize = static_cast<int32_t>(rn.ys.size());
    while (li < lsize || ri < rsize) {
      node.bridge_left.push_back(li);
      node.bridge_right.push_back(ri);
      bool take_left;
      if (li >= lsize) {
        take_left = false;
      } else if (ri >= rsize) {
        take_left = true;
      } else if (ln.ys[li] != rn.ys[ri]) {
        take_left = ln.ys[li] < rn.ys[ri];
      } else {
        take_left = ln.ids[li] < rn.ids[ri];
      }
      const Node& src = take_left ? ln : rn;
      int32_t& idx = take_left ? li : ri;
      node.ys.push_back(src.ys[idx]);
      node.ids.push_back(src.ids[idx]);
      ++idx;
    }
    node.bridge_left.push_back(li);
    node.bridge_right.push_back(ri);
  }

  // Prefix aggregates over the y-sorted list (Figure 8): prefix[i] holds
  // the aggregate of ys[0..i); slot m_ carries the count.
  Node& node = nodes_[node_id];
  const int32_t len = static_cast<int32_t>(node.ys.size());
  node.prefix.assign(static_cast<size_t>(len + 1) * stride_, 0.0);
  for (int32_t i = 0; i < len; ++i) {
    const double* prev = &node.prefix[static_cast<size_t>(i) * stride_];
    double* dst = &node.prefix[static_cast<size_t>(i + 1) * stride_];
    const double* terms =
        m_ > 0 ? &term_of_[static_cast<size_t>(node.ids[i]) * m_] : nullptr;
    for (int32_t t = 0; t < m_; ++t) dst[t] = prev[t] + terms[t];
    dst[m_] = prev[m_] + 1.0;
  }
  return node_id;
}

AggResult LayeredRangeTree2D::Aggregate(const Rect& rect) const {
  AggResult acc(m_);
  acc.count = Aggregate(rect, all_cols_.data(), m_, acc.sums.data());
  return acc;
}

int64_t LayeredRangeTree2D::Aggregate(const Rect& rect, const int32_t* cols,
                                      int32_t k, double* sums) const {
  if (n_ == 0) return 0;
  const Node& root = nodes_[root_];
  // One binary search at the root; bridges do the rest (fractional
  // cascading). Closed y interval: [lower_bound(ylo), upper_bound(yhi)).
  int32_t plo = static_cast<int32_t>(
      std::lower_bound(root.ys.begin(), root.ys.end(), rect.ylo) -
      root.ys.begin());
  int32_t phi = static_cast<int32_t>(
      std::upper_bound(root.ys.begin(), root.ys.end(), rect.yhi) -
      root.ys.begin());
  ProbeAcc acc{cols, k, sums, 0};
  AggregateRec(root_, rect, plo, phi, &acc);
  return acc.count;
}

void LayeredRangeTree2D::AggregateRec(int32_t node_id, const Rect& rect,
                                      int32_t plo, int32_t phi,
                                      ProbeAcc* acc) const {
  if (plo >= phi) return;
  const Node& node = nodes_[node_id];
  const double node_xlo = xs_sorted_[node.lo];
  const double node_xhi = xs_sorted_[node.hi - 1];
  if (node_xlo > rect.xhi || node_xhi < rect.xlo) return;
  if ((rect.xlo <= node_xlo && node_xhi <= rect.xhi) || node.left < 0) {
    // A leaf that overlaps the x interval is contained in it (its x
    // extent is a single coordinate), so both cases take the O(1)
    // prefix-aggregate slice.
    const double* hi_p = &node.prefix[static_cast<size_t>(phi) * stride_];
    const double* lo_p = &node.prefix[static_cast<size_t>(plo) * stride_];
    acc->count += static_cast<int64_t>(hi_p[m_] - lo_p[m_]);
    for (int32_t i = 0; i < acc->k; ++i) {
      const int32_t t = acc->cols[i];
      acc->sums[i] += hi_p[t] - lo_p[t];
    }
    return;
  }
  AggregateRec(node.left, rect, node.bridge_left[plo], node.bridge_left[phi],
               acc);
  AggregateRec(node.right, rect, node.bridge_right[plo],
               node.bridge_right[phi], acc);
}

void LayeredRangeTree2D::Enumerate(const Rect& rect,
                                   std::vector<int32_t>* out) const {
  if (n_ == 0) return;
  const Node& root = nodes_[root_];
  int32_t plo = static_cast<int32_t>(
      std::lower_bound(root.ys.begin(), root.ys.end(), rect.ylo) -
      root.ys.begin());
  int32_t phi = static_cast<int32_t>(
      std::upper_bound(root.ys.begin(), root.ys.end(), rect.yhi) -
      root.ys.begin());
  EnumerateRec(root_, rect, plo, phi, out);
}

void LayeredRangeTree2D::EnumerateRec(int32_t node_id, const Rect& rect,
                                      int32_t plo, int32_t phi,
                                      std::vector<int32_t>* out) const {
  if (plo >= phi) return;
  const Node& node = nodes_[node_id];
  const double node_xlo = xs_sorted_[node.lo];
  const double node_xhi = xs_sorted_[node.hi - 1];
  if (node_xlo > rect.xhi || node_xhi < rect.xlo) return;
  if ((rect.xlo <= node_xlo && node_xhi <= rect.xhi) || node.left < 0) {
    for (int32_t i = plo; i < phi; ++i) out->push_back(node.ids[i]);
    return;
  }
  EnumerateRec(node.left, rect, node.bridge_left[plo], node.bridge_left[phi],
               out);
  EnumerateRec(node.right, rect, node.bridge_right[plo],
               node.bridge_right[phi], out);
}

}  // namespace sgl
