// The indexed aggregate evaluator (Sections 5.3 and 6).
//
// At construction the provider extracts a signature for every aggregate
// declaration the script uses and groups the aggregates into index
// families keyed by what they *build* (AggregateSignature::BuildKey: index
// kind, range and partition attributes, build filters) — the multi-query
// optimization of Section 3.1. A family is built once per tick however
// many aggregates probe it; a divisible family's tree carries the union of
// its members' term columns (plus their squares only when a member takes a
// stddev), and each member keeps its own probe side: partition =/<>, range
// bounds, probe filters, self-exclusion, and which family columns its
// items read. Each tick, BuildIndexes() rebuilds every per-partition
// structure — the paper's choice for volatile data — in place: each
// family keeps its trees, one per partition id, and its pass buffers from
// tick to tick, so a steady-state build allocates next to nothing. Each
// aggregate call is answered as an index probe, one unit at a time
// through Eval() or a whole VM batch at a time through EvalBatch(), both
// ending in the same probe core:
//
//   divisible aggregates  -> layered range tree with prefix aggregates
//                            (Figure 8), O(log n) per probe;
//   divisible, no range   -> one running total per partition, built in a
//                            single pass, O(1) per probe;
//   min/max/argmin/argmax -> canonical range-extremum tree, O(log^2 n);
//   nearest               -> kD-tree per partition;
//   everything else       -> reference scan fallback (kNaive, no family).
//
// Probes yield bit-identical results to the reference interpreter; the
// engine test suite enforces this.
#ifndef SGL_OPT_INDEXED_PROVIDER_H_
#define SGL_OPT_INDEXED_PROVIDER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/kd_tree.h"
#include "geom/minmax_tree.h"
#include "geom/range_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "opt/signature.h"
#include "sgl/interpreter.h"
#include "util/timer.h"

namespace sgl {

class IndexedAggregateProvider : public AggregateProvider {
 public:
  /// `script` and `interp` must outlive the provider; `interp` supplies
  /// expression evaluation and the naive fallback.
  static Result<std::unique_ptr<IndexedAggregateProvider>> Create(
      const Script& script, const Interpreter& interp);

  /// Rebuild all index families for the tick (phase 1 of Section 6).
  /// With a pool, independent families build concurrently and each
  /// family's per-row passes split across workers; results are identical
  /// to the sequential build (every write lands in a row- or family-
  /// private slot). `stats`, when given, collects per-worker timing.
  /// The adaptive subclass overrides this with a per-family cost-based
  /// choice between rebuilding and scan fallback.
  virtual Status BuildIndexes(const EnvironmentTable& table,
                              const TickRandom& rnd,
                              exec::ThreadPool* pool = nullptr,
                              exec::ParallelStats* stats = nullptr);

  /// Answer an aggregate call with an index probe. Concurrent callers must
  /// pass distinct `shard` ids (see AggregateProvider); all probe
  /// bookkeeping is per-shard.
  Result<Value> Eval(int32_t agg_index, const std::vector<Value>& scalar_args,
                     RowId u_row, const EnvironmentTable& table,
                     const TickRandom& rnd, int32_t shard = 0) override;

  /// Answer a whole call-site batch from its probe-side columns: each
  /// active lane goes straight to the probe core Eval also ends in, with
  /// no expression evaluation and no boxing. Naive-scan aggregates,
  /// scan-mode families, and batches without a probe side answer lane by
  /// lane through Eval.
  Status EvalBatch(const AggBatch& batch, const EnvironmentTable& table,
                   const TickRandom& rnd, int32_t shard = 0) override;

  /// Size the per-shard probe counters for up to `num_shards` concurrent
  /// callers (SimulationBuilder sets this to the thread count).
  void set_num_shards(int32_t num_shards);

  /// Rebind the probe counters into `registry` under `prefix` (e.g.
  /// "script.battle.agg."). SimulationBuilder calls this once before any
  /// tick, while all counters are still zero; a standalone provider keeps
  /// the private registry Init() bound. `extra_flags` is OR-ed into every
  /// counter — kMetricExecDependent when a sharing decorator feeds this
  /// provider only memo misses. Per family f it binds "family<f>.calls",
  /// "family<f>.rows" (rows passing the build, summed over builds) and
  /// "family<f>.build_ns" (wall time of those builds, always
  /// kMetricExecDependent). The adaptive subclass extends the binding with
  /// its decision counters.
  virtual void BindMetrics(obs::MetricsRegistry* registry,
                           const std::string& prefix, uint32_t extra_flags);

  /// Emit adaptive-choice instants to `tracer` (null = off; the base
  /// provider records nothing).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// EXPLAIN: one line per aggregate, plus sharing information.
  virtual std::string DescribePlan() const;

  /// EXPLAIN: the physical strategy serving one aggregate declaration, as
  /// a short annotation the logical-plan renderer attaches to the
  /// aggregate's π∗,agg(∗) operator. The adaptive subclass extends it
  /// with the family's latest cost decision.
  virtual std::string DescribeAggregatePhysical(int32_t agg_index) const;

  /// Number of physical index families (distinct builds; naive-scan
  /// aggregates have none).
  int32_t NumIndexFamilies() const {
    return static_cast<int32_t>(families_.size());
  }

  /// Aggregate probes answered *by an index* since construction
  /// (PhaseStats feed): the merged "probes" counter. Calls served by a
  /// scan fallback — naive signatures, or a family the adaptive model
  /// put in scan mode — are not probes and are excluded. Not meaningful
  /// mid-ParallelFor; the engine reads it only between phases.
  int64_t probe_count() const { return probes_->value(); }

  /// Aggregate calls routed to family `f` since construction, scan-mode
  /// fallbacks included — the adaptive cost model's demand signal
  /// (thread-count independent by construction: every call increments
  /// exactly one slot).
  int64_t family_probe_count(int32_t f) const {
    return families_[f].calls->value();
  }

  const AggregateSignature& signature(int32_t agg_index) const {
    return signatures_[agg_index];
  }

  /// The aggregates family `f` serves, ascending.
  const std::vector<int32_t>& family_members(int32_t f) const {
    return families_[f].member_aggs;
  }

  /// Family `f`'s physical strategy for the current tick (always kRebuild
  /// outside the adaptive subclass).
  PhysicalChoice family_mode(int32_t f) const { return family_mode_[f]; }

 protected:
  IndexedAggregateProvider(const Script& script, const Interpreter& interp)
      : script_(&script), interp_(&interp) {}

  /// Shared post-construction setup: signature extraction and grouping
  /// into families by build key (called by the factory of this class and
  /// subclasses).
  Status Init();

  /// The categorical partitions of one build (the hash layer of Section
  /// 5.3.1): its passing rows grouped by the tuple of partition-attribute
  /// values. Partition ids follow ascending tuple order, the order Probe
  /// sums partitions in (kSum is not associative), and each partition
  /// lists its rows ascending. Refilled in place by every build.
  struct PartitionGroups {
    int32_t count = 0;           // partitions of the latest build
    std::vector<double> comps;   // count x partition dims, by part id
    std::vector<int32_t> start;  // part p's rows: rows[start[p], start[p+1])
    std::vector<RowId> rows;
    // Scratch: an open-addressing hash from tuple to first-seen group
    // (-1 = empty), the first-seen tuples, each passing row's first-seen
    // group, each part id's first-seen group, and the reverse.
    std::vector<int32_t> slots;
    std::vector<double> seen;
    std::vector<int32_t> group_of_row;
    std::vector<int32_t> order;
    std::vector<int32_t> part_of_group;
  };

  /// One partition's running totals (kPartitionTotals families): the
  /// passing-row count and one sum per family column, accumulated in
  /// ascending row order.
  struct PartitionTotals {
    int64_t count = 0;
    std::vector<double> sums;
  };

  /// One family term column: the expression and the row variable of the
  /// declaration it came from (members may spell the variable apart).
  struct FamilyTerm {
    const Expr* expr = nullptr;
    const std::string* e_name = nullptr;
  };

  /// One physical index family: the per-partition structures built once
  /// for every aggregate with the same build key.
  struct Family {
    const AggregateSignature* sig = nullptr;  // first member: build side
    std::vector<int32_t> member_aggs;         // aggregate indices served
    std::vector<FamilyTerm> terms;  // union of the members' terms
    bool squares = false;           // term squares follow the terms
    int32_t num_cols() const {
      return static_cast<int32_t>(terms.size()) * (squares ? 2 : 1);
    }

    obs::Counter* calls = nullptr;     // aggregate calls routed here
    obs::Counter* rows = nullptr;      // rows passing the build
    obs::Counter* build_ns = nullptr;  // build wall time

    // Build products, refilled in place by every build. The per-partition
    // vectors are indexed by part id and only grow: a slot past this
    // build's partition count keeps its storage for a later build.
    std::vector<char> row_passes;  // build-filter result per row
    std::vector<std::vector<double>> term_cols;  // num_cols() columns
    PartitionGroups parts;
    std::vector<PartitionTotals> totals;
    std::vector<LayeredRangeTree2D> div_trees;
    std::vector<MinMaxRangeTree2D> mm_trees;
    std::vector<KdTree2D> kd_trees;
    std::vector<PointRef> points;  // build scratch: one partition's points
  };

  Status BuildFamily(Family* family, const EnvironmentTable& table,
                     const TickRandom& rnd, exec::ThreadPool* pool,
                     exec::ParallelStats* stats);

  /// Pass 3 of BuildFamily: refill `family->parts` from the rows passing
  /// its build filters.
  void GroupPartitions(Family* family, const EnvironmentTable& table) const;

  /// Build `families` with the shared fan-out policy: sequentially when
  /// there is no pool or at most one family (per-row passes then still
  /// parallelize inside BuildFamily), else one ParallelFor chunk per
  /// family with nested row passes running inline. Used by both the
  /// always-rebuild base BuildIndexes and the adaptive rebuild subset.
  Status BuildFamilies(const std::vector<Family*>& families,
                       const EnvironmentTable& table, const TickRandom& rnd,
                       exec::ThreadPool* pool, exec::ParallelStats* stats);

  /// Internal error for a shard outside [0, num_shards).
  Status CheckShard(int32_t shard) const;

  /// The query rectangle of `sig` from its evaluated range bounds, given
  /// in ProbeValues order (each dimension's present lower, then upper
  /// bound). Strict bounds tighten by one ulp.
  Rect RectOf(const AggregateSignature& sig, const double* bounds) const;

  /// The one probe core behind Eval and EvalBatch: answer indexed
  /// aggregate `agg_index` (its family not in scan mode) for unit `u_row`
  /// from its evaluated probe side — partition values, query rectangle,
  /// and whether every probe filter passed — writing the result's
  /// AggregateResultWidth doubles to `vals`. Touches no counter.
  Status Probe(int32_t agg_index, RowId u_row, const double* part_values,
               const Rect& rect, bool probe_ok, const EnvironmentTable& table,
               double* vals) const;

  /// A found row-returning result: found = 1, dist2, then row `row`'s
  /// attributes.
  void UnitRow(const EnvironmentTable& table, RowId row, double dist2,
               double* vals) const;

  const Script* script_;
  const Interpreter* interp_;
  std::vector<AggregateSignature> signatures_;   // one per aggregate decl
  std::vector<int32_t> family_of_agg_;  // aggregate -> family (-1: naive)
  /// Per divisible aggregate, the family columns its probe reads: its
  /// terms' columns in term order, then — when it has a stddev item — the
  /// matching square columns.
  std::vector<std::vector<int32_t>> probe_cols_;
  std::vector<Family> families_;
  /// Probe bookkeeping lives in a metrics registry: Init() binds to a
  /// private one so standalone providers work unchanged, and the builder
  /// rebinds into the simulation's via BindMetrics. The counters are
  /// per-shard padded, so concurrent probes never contend on one slot.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* probes_ = nullptr;              // index-served probes
  int32_t num_shards_ = 1;
  obs::Tracer* tracer_ = nullptr;
  /// Physical strategy per family this tick. The base provider always
  /// rebuilds (the constructor default); the adaptive subclass re-decides
  /// each tick, and Eval falls back to the reference scan for kScan.
  std::vector<PhysicalChoice> family_mode_;
  AttrId posx_attr_ = Schema::kInvalidAttr;
  AttrId posy_attr_ = Schema::kInvalidAttr;
};

}  // namespace sgl

#endif  // SGL_OPT_INDEXED_PROVIDER_H_
