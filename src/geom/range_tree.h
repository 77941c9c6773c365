// Layered range tree with fractional cascading and divisible aggregates.
//
// This is the structure of Section 5.3.1 / Figure 8. A balanced binary tree
// is built over the points in x order; every node stores its subtree's
// points sorted by y. Fractional cascading [Chazelle & Guibas]: the y
// position of the query bounds is binary-searched once at the root, and
// "bridge" arrays map positions into each child in O(1), removing the
// per-node log factor. For *divisible* aggregates (Definition 5.1: sum,
// count, every statistical moment) the y-sorted lists store prefix
// aggregates, so any contiguous y slice of a canonical node is recovered
// as prefix[hi] - prefix[lo].
//
//   Build:      O(n log n)
//   Aggregate:  O(log n) per rectangle probe (fractional cascading)
//   Enumerate:  O(log n + k) reporting k points
//
// The tree supports m payload terms per point and answers all of them in
// one probe (the paper's "list of aggregate tuples" for centroid queries).
// It is rebuilt every tick, per the paper's observation that per-tick
// rebuilding beats dynamic maintenance for volatile data, and Rebuild
// refills the tree in place: every node lives in a few flat arrays that
// keep their storage from one build to the next, so a steady-state
// rebuild allocates nothing.
#ifndef SGL_GEOM_RANGE_TREE_H_
#define SGL_GEOM_RANGE_TREE_H_

#include <cstdint>
#include <vector>

#include "geom/geom.h"

namespace sgl {

/// Result of an aggregate probe: point count plus one sum per payload term.
struct AggResult {
  int64_t count = 0;
  std::vector<double> sums;

  explicit AggResult(int32_t num_terms = 0) : sums(num_terms, 0.0) {}
};

class LayeredRangeTree2D {
 public:
  /// An empty tree (every probe misses) until Rebuild fills it.
  LayeredRangeTree2D() = default;

  /// Build over `points`; `terms[t]` is the t-th payload column, indexed by
  /// PointRef::id. Pass an empty terms vector for pure count/enumeration.
  LayeredRangeTree2D(const std::vector<PointRef>& points,
                     const std::vector<std::vector<double>>& terms) {
    Rebuild(points, terms);
  }

  /// Replace the contents with a build over `points` (arguments as for
  /// the constructor). The tree keeps the storage of earlier builds, so
  /// a rebuild no larger than one before allocates nothing.
  void Rebuild(const std::vector<PointRef>& points,
               const std::vector<std::vector<double>>& terms);

  int32_t num_points() const { return n_; }
  int32_t num_terms() const { return m_; }

  /// Count points and sum every payload term over `rect`. Exact for
  /// integer-valued terms, the repo's determinism contract.
  AggResult Aggregate(const Rect& rect) const;

  /// The same probe restricted to the payload columns `cols[0..k)`: adds
  /// column cols[i]'s sum over `rect` to `sums[i]` (caller-owned, zeroed
  /// by the caller) and returns the point count. Columns not listed are
  /// never read, so a count-only probe (k == 0) costs the same whatever
  /// payload the tree carries. Each listed column accumulates exactly as
  /// in Aggregate(rect).
  int64_t Aggregate(const Rect& rect, const int32_t* cols, int32_t k,
                    double* sums) const;

  /// Append the ids of all points inside `rect` to `out` (order follows
  /// the canonical decomposition, not input order).
  void Enumerate(const Rect& rect, std::vector<int32_t>* out) const;

 private:
  /// The accumulator of one column-restricted probe.
  struct ProbeAcc {
    const int32_t* cols;
    int32_t k;
    double* sums;
    int64_t count;
  };

  // Layout. Nodes are numbered in pre-order and fixed by their point
  // range: the node over x-sorted points [lo, hi), mid = lo + (hi-lo)/2,
  // has its left child at id + 1 and its right child at id + 2(mid-lo),
  // because a subtree over k points has 2k-1 nodes. Node id's subtree
  // points, sorted by y, are ys_/ids_[off_[id], off_[id] + hi-lo); its
  // bridge and prefix rows, one more than its points, start at row
  // off_[id] + id. Sibling subtrees own disjoint slots of every array.

  /// Build node `id` over [lo, hi) with its points at offset `off`, its
  /// subtree's points after them; returns the offset past the subtree.
  int64_t Build(int32_t id, int32_t lo, int32_t hi, int64_t off);
  /// The root's y position range [plo, phi) of the closed interval
  /// [rect.ylo, rect.yhi].
  void RootSpan(const Rect& rect, int32_t* plo, int32_t* phi) const;
  void AggregateRec(int32_t id, int32_t lo, int32_t hi, const Rect& rect,
                    int32_t plo, int32_t phi, ProbeAcc* acc) const;
  void EnumerateRec(int32_t id, int32_t lo, int32_t hi, const Rect& rect,
                    int32_t plo, int32_t phi, std::vector<int32_t>* out) const;

  int32_t n_ = 0;
  int32_t m_ = 0;       // payload terms
  int32_t stride_ = 1;  // m_ + 1 (terms + count)
  std::vector<int32_t> all_cols_;  // 0..m_-1: Aggregate(rect)'s columns
  std::vector<int32_t> order_;     // build scratch: the x-sort permutation
  std::vector<double> xs_sorted_;
  std::vector<double> ys_of_;    // y keyed by x-sorted position
  std::vector<int32_t> ids_of_;  // id keyed by x-sorted position
  std::vector<double> term_of_;  // terms keyed by PointRef::id
  std::vector<int64_t> off_;     // per node: offset of its points
  std::vector<double> ys_;
  std::vector<int32_t> ids_;  // parallel to ys_
  // Per node row p: how many of the node's first p y-sorted points lie in
  // the left child (the fractional-cascading bridge). The right child's
  // bridge is p minus it.
  std::vector<int32_t> bridge_left_;
  // prefix_[row * stride_ + t]: sum of term t over the node's first p
  // y-sorted points at its row p; slot m_ is the count (always 1 per
  // point) so count needs no special case.
  std::vector<double> prefix_;
};

}  // namespace sgl

#endif  // SGL_GEOM_RANGE_TREE_H_
