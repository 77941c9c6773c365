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
// It is a static structure rebuilt every tick, per the paper's observation
// that per-tick rebuilding beats dynamic maintenance for volatile data.
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
  /// Build over `points`; `terms[t]` is the t-th payload column, indexed by
  /// PointRef::id. Pass an empty terms vector for pure count/enumeration.
  LayeredRangeTree2D(const std::vector<PointRef>& points,
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
  struct Node {
    int32_t lo = 0, hi = 0;       // x-sorted point range [lo, hi)
    int32_t left = -1, right = -1;
    std::vector<double> ys;       // subtree points sorted by y
    std::vector<int32_t> ids;     // parallel to ys
    // prefix[(i) * stride + t]: sum of term t over ys[0..i); slot m_ is
    // the count (always 1 per point) so count needs no special case.
    std::vector<double> prefix;
    // bridge arrays of length ys.size()+1: position -> position in child.
    std::vector<int32_t> bridge_left;
    std::vector<int32_t> bridge_right;
  };

  /// The accumulator of one column-restricted probe.
  struct ProbeAcc {
    const int32_t* cols;
    int32_t k;
    double* sums;
    int64_t count;
  };

  int32_t Build(int32_t lo, int32_t hi);
  void AggregateRec(int32_t node_id, const Rect& rect, int32_t plo,
                    int32_t phi, ProbeAcc* acc) const;
  void EnumerateRec(int32_t node_id, const Rect& rect, int32_t plo,
                    int32_t phi, std::vector<int32_t>* out) const;

  int32_t n_ = 0;
  int32_t m_ = 0;       // payload terms
  int32_t stride_ = 1;  // m_ + 1 (terms + count)
  std::vector<int32_t> all_cols_;       // 0..m_-1: Aggregate(rect)'s columns
  std::vector<double> xs_sorted_;
  std::vector<double> ys_of_;           // y keyed by x-sorted position
  std::vector<int32_t> ids_of_;         // id keyed by x-sorted position
  std::vector<double> term_of_;         // terms keyed by x-sorted position
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace sgl

#endif  // SGL_GEOM_RANGE_TREE_H_
