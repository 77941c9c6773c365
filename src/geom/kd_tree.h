// Static 2-D kD-tree for nearest-neighbour aggregates (Section 5.3.2).
//
// Spatial aggregates like "find the nearest healer" are answered with a
// kD-tree [Bentley 1990]; the categorical parts of the selection (player,
// unit type) are handled by building one tree per partition (the hash
// layer of Section 5.3.1), and ordered non-spatial attributes by the
// LayeredKdForest below. The tree is rebuilt per tick, in place: Rebuild
// refills the flat point and node arrays, keeping their storage.
//
// Distances are squared Euclidean — exact for integer-valued grid
// coordinates — and ties are broken by smaller key, so results never
// depend on build or traversal order.
#ifndef SGL_GEOM_KD_TREE_H_
#define SGL_GEOM_KD_TREE_H_

#include <cstdint>
#include <vector>

#include "geom/geom.h"

namespace sgl {

/// Result of a nearest-neighbour probe.
struct Neighbor {
  int64_t key = std::numeric_limits<int64_t>::max();
  double dist2 = std::numeric_limits<double>::infinity();
  int32_t id = -1;  ///< PointRef::id of the neighbour, -1 if none

  bool found() const { return id >= 0; }
};

class KdTree2D {
 public:
  /// An empty tree (all probes miss).
  KdTree2D() = default;

  /// Build over `points`; `keys[p.id]` is each point's identity key.
  KdTree2D(const std::vector<PointRef>& points,
           const std::vector<int64_t>& keys) {
    Rebuild(points, keys);
  }

  /// Replace the contents with a build over `points` (arguments as for
  /// the constructor). The tree keeps the storage of earlier builds, so
  /// a rebuild no larger than one before allocates nothing.
  void Rebuild(const std::vector<PointRef>& points,
               const std::vector<int64_t>& keys);

  /// Nearest point to (qx, qy), excluding any point whose key equals
  /// `exclude_key` (pass a sentinel such as INT64_MIN to exclude nothing).
  Neighbor Nearest(double qx, double qy, int64_t exclude_key) const;

  /// Nearest point within squared distance `max_dist2` (inclusive);
  /// not-found if nothing qualifies.
  Neighbor NearestWithin(double qx, double qy, int64_t exclude_key,
                         double max_dist2) const;

  /// Nearest point lying inside `rect` — the shape of "nearest enemy in
  /// my (rectangular) visibility range" probes.
  Neighbor NearestInRect(double qx, double qy, int64_t exclude_key,
                         const Rect& rect) const;

  int32_t num_points() const { return n_; }

 private:
  static constexpr int32_t kLeafSize = 8;

  struct Node {
    // Points are stored in pts_[lo, hi); internal nodes split at `mid`
    // along `axis` (0 = x, 1 = y).
    int32_t lo = 0, hi = 0;
    int32_t left = -1, right = -1;
    int8_t axis = 0;
    double split = 0.0;
    // Bounding box for pruning.
    double bxlo = 0.0, bxhi = 0.0, bylo = 0.0, byhi = 0.0;
  };

  struct Pt {
    double x, y;
    int64_t key;
    int32_t id;
  };

  int32_t Build(int32_t lo, int32_t hi);
  void Search(int32_t node_id, double qx, double qy, int64_t exclude_key,
              Neighbor* best) const;
  void SearchRect(int32_t node_id, double qx, double qy, int64_t exclude_key,
                  const Rect& rect, Neighbor* best) const;

  int32_t n_ = 0;
  std::vector<Pt> pts_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

/// Layered structure of Section 5.3.2: "the nearest unit whose armor we can
/// penetrate". A balanced tree over an ordered attribute with a kD-tree at
/// every canonical node. A query with threshold t decomposes the prefix
/// {units with attr <= t} into O(log n) canonical kD-trees and takes the
/// best neighbour among them: O(log^2 n) per probe, O(n log^2 n) build.
class LayeredKdForest {
 public:
  /// `ordered[p.id]` is the layering attribute (e.g. armor class).
  LayeredKdForest(const std::vector<PointRef>& points,
                  const std::vector<int64_t>& keys,
                  const std::vector<double>& ordered);

  /// Nearest point with ordered-attribute value <= `threshold`.
  Neighbor NearestWithAttrAtMost(double qx, double qy, int64_t exclude_key,
                                 double threshold) const;

 private:
  // Implicit segment tree over the attr-sorted points: node p >= n_ is the
  // single point at sorted position p - n_, internal node p unions its
  // children. Every node carries its own kD-tree; a threshold query walks
  // the canonical decomposition of the prefix [0, upper_bound(threshold)).
  int32_t n_ = 0;
  std::vector<double> attr_sorted_;
  std::vector<KdTree2D> seg_trees_;
};

}  // namespace sgl

#endif  // SGL_GEOM_KD_TREE_H_
