// Range-extremum tree: MIN/MAX aggregates over orthogonal ranges.
//
// min and max are not divisible (Definition 5.1) — prefix differences do
// not apply — but they are *decomposable*: an orthogonal range splits into
// O(log n) canonical nodes, and each node answers a contiguous y-slice
// with a per-node segment tree over its y-sorted entries. A probe costs
// O(log^2 n); build is O(n log n) time and space. This is the natural
// alternative to the paper's Figure 9 sweep-line, which achieves O(log n)
// per probe but requires constant range extents. Like the layered range
// tree, it is rebuilt every tick in place: Rebuild refills flat per-field
// arrays that keep their storage from one build to the next.
//
// Entries carry (value, key); ties are broken by smaller key so results
// are order-independent. MAX is served by negating values internally.
#ifndef SGL_GEOM_MINMAX_TREE_H_
#define SGL_GEOM_MINMAX_TREE_H_

#include <cstdint>
#include <vector>

#include "geom/geom.h"

namespace sgl {

class MinMaxRangeTree2D {
 public:
  enum class Mode { kMin, kMax };

  /// An empty tree (every query misses) until Rebuild fills it.
  MinMaxRangeTree2D() = default;

  /// Build over `points`; `values[p.id]` is the ordering value and
  /// `keys[p.id]` the tie-break/identity key of each point.
  MinMaxRangeTree2D(const std::vector<PointRef>& points,
                    const std::vector<double>& values,
                    const std::vector<int64_t>& keys, Mode mode) {
    Rebuild(points, values, keys, mode);
  }

  /// Replace the contents with a build over `points` (arguments as for
  /// the constructor). The tree keeps the storage of earlier builds, so
  /// a rebuild no larger than one before allocates nothing.
  void Rebuild(const std::vector<PointRef>& points,
               const std::vector<double>& values,
               const std::vector<int64_t>& keys, Mode mode);

  /// Extremum over `rect`; `Extremum::valid()` is false if the range is
  /// empty. For kMax the returned `value` is the true (un-negated) max.
  Extremum Query(const Rect& rect) const;

  int32_t num_points() const { return n_; }

 private:
  // Nodes are numbered in pre-order and fixed by their point range, as in
  // LayeredRangeTree2D: the node over x-sorted points [lo, hi) has its
  // left child at id + 1 and its right child at id + 2(mid-lo). Its
  // entries, sorted by y, are ys_[off_[id], off_[id] + hi-lo), and its
  // segment tree is seg_[2 off_[id], 2 (off_[id] + hi-lo)): leaf i at
  // (hi-lo) + i, internal p = min(2p, 2p+1).

  /// Build node `id` over [lo, hi) with its entries at offset `off`, its
  /// subtree's entries after them; returns the offset past the subtree.
  int64_t Build(int32_t id, int32_t lo, int32_t hi, int64_t off);
  void QueryRec(int32_t id, int32_t lo, int32_t hi, const Rect& rect,
                Extremum* best) const;

  Mode mode_ = Mode::kMin;
  int32_t n_ = 0;
  std::vector<int32_t> order_;  // build scratch: the x-sort permutation
  std::vector<double> xs_sorted_;
  std::vector<double> ys_of_;
  std::vector<Extremum> entry_of_;
  std::vector<int64_t> off_;  // per node: offset of its entries
  std::vector<double> ys_;
  std::vector<Extremum> seg_;
};

}  // namespace sgl

#endif  // SGL_GEOM_MINMAX_TREE_H_
