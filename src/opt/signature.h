// Aggregate signature extraction: the planner's view of an aggregate.
//
// Section 5.3: the index structure for an aggregate depends on both the
// aggregate functions and the selection σφ. Assuming φ is a conjunction
// (true of every aggregate in the paper, its examples, and the AMAI
// corpus), each conjunct is classified as
//
//   * a RANGE constraint   e.A  cmp  expr(u, params)   — one tree
//     dimension with per-probe bounds (the orthogonal range components);
//   * a PARTITION          e.A  =|<>  expr(u, params)  — a degenerate /
//     categorical component, handled by the hash layer of Section 5.3.1
//     (one index per value; <> probes every other partition);
//   * a BUILD FILTER       any conjunct over e alone    — pushed into
//     index construction (the "moderately wounded" example);
//   * a PROBE FILTER       any conjunct over u alone    — evaluated per
//     probing unit (false ⇒ the aggregate of the empty set);
//   * SELF-EXCLUSION       e.key <> u.key               — divisible
//     aggregates subtract the probing unit's own contribution
//     (Definition 5.1); nearest-neighbour probes exclude the key.
//
// Anything else — disjunctions under u∧e mixing, random(), more than two
// u-dependent range attributes — makes the aggregate non-indexable and
// the signature records kNaive with a reason string (surfaced by
// EXPLAIN); the engine then falls back to the reference scan for that
// aggregate only.
#ifndef SGL_OPT_SIGNATURE_H_
#define SGL_OPT_SIGNATURE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "sgl/analyzer.h"
#include "util/status.h"

namespace sgl {

/// Physical strategy chosen for one aggregate declaration.
enum class IndexKind {
  kDivisibleRangeTree,  // Figure 8: prefix aggregates, O(log n)/probe
  kPartitionTotals,     // divisible, no range: one running total per
                        // partition, O(1)/probe
  kMinMaxTree,          // canonical range-extremum tree, O(log^2 n)/probe
  kKdNearest,           // kD-tree nearest neighbour (Section 5.3.2)
  kNaive,               // linear scan fallback
};

const char* IndexKindName(IndexKind kind);

/// One range dimension: per-probe closed bounds lo(u) <= e.attr <= hi(u).
/// Null bound pointers mean unbounded; `*_strict` marks < / > conjuncts
/// (tightened by one ulp at probe time).
struct RangeDim {
  AttrId attr = Schema::kInvalidAttr;
  const Expr* lo = nullptr;
  const Expr* hi = nullptr;
  bool lo_strict = false;
  bool hi_strict = false;
};

/// One partition dimension: e.attr =/<> value(u).
struct PartitionDim {
  AttrId attr = Schema::kInvalidAttr;
  const Expr* value = nullptr;
  bool negated = false;
};

/// Everything the index builder and prober need to know about an
/// aggregate. Pointers alias the Script's AST and share its lifetime.
struct AggregateSignature {
  int32_t agg_index = -1;
  IndexKind kind = IndexKind::kNaive;
  std::string reason;  // why kNaive, for EXPLAIN

  /// Declaration variable names, recorded so build keys can rename them
  /// to canonical placeholders (@u, @e, @p0...) — structural identity must
  /// not depend on what a script called its tuple variables.
  std::string u_name;
  std::string e_name;
  std::vector<std::string> param_names;  // scalar params (after the unit)

  std::vector<RangeDim> ranges;          // at most 2 (x dimension first)
  std::vector<PartitionDim> partitions;  // composite hash layer
  std::vector<const Cond*> build_filters;
  std::vector<const Cond*> probe_filters;
  bool exclude_self = false;

  /// Divisible: e-only term columns to pre-aggregate; items map onto them
  /// via term_of_item (kCount items use -1). Extremum: single term.
  std::vector<const Expr*> terms;
  std::vector<int32_t> term_of_item;
  /// Extremum: the tree keeps maxima (max/argmax) rather than minima.
  bool extremum_max = false;

  /// Build-side identity for multi-query sharing (Section 3.1): two
  /// aggregates with the same build key are served by one physical index
  /// family. It covers what the build consumes — index kind, range and
  /// partition attributes, build filters, and an extremum's term and
  /// direction — but not the probe side (partition =/<>, range bounds,
  /// probe filters, self-exclusion), which each member keeps, nor a
  /// divisible aggregate's terms: a family's tree carries the union of its
  /// members' term columns. Variable names are canonicalized, so the
  /// identity holds across declarations — and scripts — that differ only
  /// in spelling. kNaive signatures build nothing and have no family.
  std::string BuildKey() const;

  /// Canonical form of terms[t], the key that deduplicates term columns
  /// among a family's members.
  std::string TermKey(size_t t) const;

  /// The probe side's value expressions in canonical order: each
  /// partition's value, then each range dimension's lower and upper bound
  /// (present ones only). With probe_filters, this is what one probe
  /// consumes besides the unit's key and position, and it fixes the
  /// column order of an AggBatch's probe side and of sharing memo keys.
  std::vector<const Expr*> ProbeValues() const;
};

/// Extract the signature of aggregate `agg_index` of `script`.
Result<AggregateSignature> ExtractSignature(const Script& script,
                                            int32_t agg_index);

/// Round-trip rendering of a numeric literal for structural keys
/// (%.17g): distinct constants must never print alike, or build-key /
/// factoring dedup would merge declarations with different semantics.
/// Shared by the signature's keys, the canonical fingerprints, and
/// plan.cc's canonical keys so the layers cannot disagree about literal
/// identity.
void PrintCanonicalNumber(double v, std::ostream& os);

/// Canonical structural identity of the *whole* aggregate declaration:
/// select items (function, alias, term), where clause, and parameter
/// count, with tuple variables and parameters renamed to placeholders.
/// Two declarations with equal canonical fingerprints compute the same
/// function of (probing unit, scalar args, environment) — schemas are
/// resolved to attribute ids, and random() is banned inside aggregates —
/// so their probe results are interchangeable. This is the dedup key of
/// the cross-script aggregate-sharing layer (src/opt/sharing.h), which is
/// also why it must cover aliases: memoized row results are looked up by
/// field name against the producing declaration's layout.
std::string CanonicalAggregateFingerprint(const Script& script,
                                          int32_t agg_index);

/// Which tuples an expression or condition references — shared conjunct
/// classification machinery for the aggregate and action planners.
struct SideUse {
  bool uses_u = false;
  bool uses_e = false;
  bool uses_random = false;
};
/// `params` lists the declaration's scalar parameters: references to them
/// are probe-side (they are bound per probing unit), so they count as
/// uses_u.
SideUse AnalyzeExprUse(const Expr& e, const std::string& u_name,
                       const std::string& e_name,
                       const std::vector<std::string>& params);
SideUse AnalyzeCondUse(const Cond& c, const std::string& u_name,
                       const std::string& e_name,
                       const std::vector<std::string>& params);

/// Flatten the AND-tree of a where clause into conjuncts.
void FlattenWhere(const Cond& c, std::vector<const Cond*>* out);

/// True if `e` is exactly `alias.attr`; sets *attr to the attribute id.
bool IsPlainAttrRef(const Expr& e, const std::string& alias, AttrId* attr);

/// Render a one-line summary ("divisible-range-tree on (posx, posy), "
/// "partition (player<>), 3 terms") for EXPLAIN output.
std::string DescribeSignature(const Script& script,
                              const AggregateSignature& sig);

}  // namespace sgl

#endif  // SGL_OPT_SIGNATURE_H_
