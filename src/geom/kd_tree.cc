#include "geom/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sgl {

void KdTree2D::Rebuild(const std::vector<PointRef>& points,
                       const std::vector<int64_t>& keys) {
  n_ = static_cast<int32_t>(points.size());
  nodes_.clear();
  root_ = -1;
  if (n_ == 0) return;
  ResizeRetained(&pts_, n_);
  for (int32_t i = 0; i < n_; ++i) {
    pts_[i] = Pt{points[i].x, points[i].y, keys[points[i].id], points[i].id};
  }
  root_ = Build(0, n_);
}

int32_t KdTree2D::Build(int32_t lo, int32_t hi) {
  int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  Node local;
  local.lo = lo;
  local.hi = hi;
  local.bxlo = local.bxhi = pts_[lo].x;
  local.bylo = local.byhi = pts_[lo].y;
  for (int32_t i = lo + 1; i < hi; ++i) {
    local.bxlo = std::min(local.bxlo, pts_[i].x);
    local.bxhi = std::max(local.bxhi, pts_[i].x);
    local.bylo = std::min(local.bylo, pts_[i].y);
    local.byhi = std::max(local.byhi, pts_[i].y);
  }
  if (hi - lo > kLeafSize) {
    // Split along the wider box side for balanced pruning; deterministic
    // comparator (coordinate, then key) keeps builds reproducible.
    local.axis = (local.bxhi - local.bxlo >= local.byhi - local.bylo) ? 0 : 1;
    int32_t mid = lo + (hi - lo) / 2;
    auto cmp = [&](const Pt& a, const Pt& b) {
      double av = local.axis == 0 ? a.x : a.y;
      double bv = local.axis == 0 ? b.x : b.y;
      if (av != bv) return av < bv;
      return a.key < b.key;
    };
    std::nth_element(pts_.begin() + lo, pts_.begin() + mid, pts_.begin() + hi,
                     cmp);
    local.split = local.axis == 0 ? pts_[mid].x : pts_[mid].y;
    local.left = Build(lo, mid);
    local.right = Build(mid, hi);
  }
  nodes_[node_id] = local;
  return node_id;
}

Neighbor KdTree2D::Nearest(double qx, double qy, int64_t exclude_key) const {
  Neighbor best;
  if (n_ == 0) return best;
  Search(root_, qx, qy, exclude_key, &best);
  return best;
}

Neighbor KdTree2D::NearestWithin(double qx, double qy, int64_t exclude_key,
                                 double max_dist2) const {
  Neighbor best;
  if (n_ == 0) return best;
  // Seed the bound so pruning kicks in immediately; a just-over boundary
  // epsilon keeps max_dist2 itself inclusive.
  best.dist2 = std::nextafter(max_dist2, std::numeric_limits<double>::max());
  Search(root_, qx, qy, exclude_key, &best);
  if (best.found() && best.dist2 > max_dist2) {
    return Neighbor{};
  }
  return best;
}

void KdTree2D::Search(int32_t node_id, double qx, double qy,
                      int64_t exclude_key, Neighbor* best) const {
  const Node& node = nodes_[node_id];
  // Prune on the bounding box distance.
  double dx =
      qx < node.bxlo ? node.bxlo - qx : (qx > node.bxhi ? qx - node.bxhi : 0.0);
  double dy =
      qy < node.bylo ? node.bylo - qy : (qy > node.byhi ? qy - node.byhi : 0.0);
  double box_d2 = dx * dx + dy * dy;
  if (box_d2 > best->dist2) return;

  if (node.left < 0) {
    for (int32_t i = node.lo; i < node.hi; ++i) {
      const Pt& p = pts_[i];
      if (p.key == exclude_key) continue;
      double d2 = SquaredDistance(qx, qy, p.x, p.y);
      if (d2 < best->dist2 || (d2 == best->dist2 && p.key < best->key)) {
        best->dist2 = d2;
        best->key = p.key;
        best->id = p.id;
      }
    }
    return;
  }
  // Visit the near side first.
  double q_axis = node.axis == 0 ? qx : qy;
  int32_t first = q_axis < node.split ? node.left : node.right;
  int32_t second = first == node.left ? node.right : node.left;
  Search(first, qx, qy, exclude_key, best);
  Search(second, qx, qy, exclude_key, best);
}

Neighbor KdTree2D::NearestInRect(double qx, double qy, int64_t exclude_key,
                                 const Rect& rect) const {
  Neighbor best;
  if (n_ == 0) return best;
  SearchRect(root_, qx, qy, exclude_key, rect, &best);
  return best;
}

void KdTree2D::SearchRect(int32_t node_id, double qx, double qy,
                          int64_t exclude_key, const Rect& rect,
                          Neighbor* best) const {
  const Node& node = nodes_[node_id];
  // Prune nodes whose box misses the rect entirely.
  if (node.bxlo > rect.xhi || node.bxhi < rect.xlo || node.bylo > rect.yhi ||
      node.byhi < rect.ylo) {
    return;
  }
  double dx = qx < node.bxlo ? node.bxlo - qx
                             : (qx > node.bxhi ? qx - node.bxhi : 0.0);
  double dy = qy < node.bylo ? node.bylo - qy
                             : (qy > node.byhi ? qy - node.byhi : 0.0);
  if (dx * dx + dy * dy > best->dist2) return;

  if (node.left < 0) {
    for (int32_t i = node.lo; i < node.hi; ++i) {
      const Pt& p = pts_[i];
      if (p.key == exclude_key) continue;
      if (!rect.Contains(p.x, p.y)) continue;
      double d2 = SquaredDistance(qx, qy, p.x, p.y);
      if (d2 < best->dist2 || (d2 == best->dist2 && p.key < best->key)) {
        best->dist2 = d2;
        best->key = p.key;
        best->id = p.id;
      }
    }
    return;
  }
  double q_axis = node.axis == 0 ? qx : qy;
  int32_t first = q_axis < node.split ? node.left : node.right;
  int32_t second = first == node.left ? node.right : node.left;
  SearchRect(first, qx, qy, exclude_key, rect, best);
  SearchRect(second, qx, qy, exclude_key, rect, best);
}

LayeredKdForest::LayeredKdForest(const std::vector<PointRef>& points,
                                 const std::vector<int64_t>& keys,
                                 const std::vector<double>& ordered) {
  n_ = static_cast<int32_t>(points.size());
  if (n_ == 0) return;
  // Sort by the layering attribute (ties by key for determinism).
  std::vector<int32_t> order(n_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    double av = ordered[points[a].id];
    double bv = ordered[points[b].id];
    if (av != bv) return av < bv;
    return keys[points[a].id] < keys[points[b].id];
  });
  attr_sorted_.resize(n_);
  for (int32_t i = 0; i < n_; ++i) {
    attr_sorted_[i] = ordered[points[order[i]].id];
  }

  // leaves_of[p]: sorted positions covered by segment-tree node p.
  std::vector<std::vector<int32_t>> leaves_of(static_cast<size_t>(2 * n_));
  for (int32_t i = 0; i < n_; ++i) leaves_of[n_ + i] = {i};
  for (int32_t p = n_ - 1; p >= 1; --p) {
    leaves_of[p] = leaves_of[2 * p];
    leaves_of[p].insert(leaves_of[p].end(), leaves_of[2 * p + 1].begin(),
                        leaves_of[2 * p + 1].end());
  }
  seg_trees_.resize(static_cast<size_t>(2 * n_));
  for (int32_t p = 1; p < 2 * n_; ++p) {
    if (leaves_of[p].empty()) continue;
    std::vector<PointRef> subset;
    subset.reserve(leaves_of[p].size());
    for (int32_t pos : leaves_of[p]) subset.push_back(points[order[pos]]);
    seg_trees_[p] = KdTree2D(subset, keys);
  }
}

Neighbor LayeredKdForest::NearestWithAttrAtMost(double qx, double qy,
                                                int64_t exclude_key,
                                                double threshold) const {
  Neighbor best;
  if (n_ == 0) return best;
  int32_t ub = static_cast<int32_t>(
      std::upper_bound(attr_sorted_.begin(), attr_sorted_.end(), threshold) -
      attr_sorted_.begin());
  // Canonical decomposition of [0, ub).
  for (int32_t l = 0 + n_, r = ub + n_; l < r; l >>= 1, r >>= 1) {
    auto consider = [&](int32_t p) {
      Neighbor cand = seg_trees_[p].Nearest(qx, qy, exclude_key);
      if (!cand.found()) return;
      if (cand.dist2 < best.dist2 ||
          (cand.dist2 == best.dist2 && cand.key < best.key)) {
        best = cand;
      }
    };
    if (l & 1) consider(l++);
    if (r & 1) consider(--r);
  }
  return best;
}

}  // namespace sgl
