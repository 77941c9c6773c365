// The adaptive aggregate evaluator: per-family physical choice by cost.
//
// The paper's Section 6 engine ships "two pluggable versions" of the
// aggregate evaluator — naive scans or per-tick index rebuilds — and the
// simulation picks one globally. This provider makes the choice *per
// physical index family, per tick*, with the cost model of opt/cost.h:
//
//   scan         low-demand families skip the build entirely and answer
//                probes through the reference evaluator;
//   rebuild      hot families rebuild from scratch, exactly like the
//                indexed evaluator;
//   incremental  divisible range-tree families with low churn apply the
//                tick's delta log (EnvironmentTable change tracking) to
//                the existing trees as remove/insert overlays.
//
// Probing is inherited from the indexed evaluator, batch seam included:
// a VM batch (EvalBatch) is answered from its probe-side columns by the
// shared probe core on rebuilt and incremental families (delta overlays
// are the trees' own business), and lane by lane through the reference
// evaluator on scan-mode families. Either way each lane tallies one call
// on its family, so the demand signal is the same as per-unit Eval's.
//
// The demand signal is the per-family probe tally observed on previous
// ticks (exponentially weighted); the churn signal is the number of
// dirty rows whose changed attributes intersect the family's build-side
// dependency mask. Both are pure counts, so every decision is a
// deterministic function of the simulation state: runs stay bit-exact
// for any worker-thread count, and adaptive mode is bit-exact with the
// naive and indexed evaluators (all three answer every aggregate with
// mathematically identical results; the engine test suite enforces it).
#ifndef SGL_OPT_ADAPTIVE_PROVIDER_H_
#define SGL_OPT_ADAPTIVE_PROVIDER_H_

#include <memory>
#include <string>
#include <vector>

#include "opt/cost.h"
#include "opt/indexed_provider.h"

namespace sgl {

class AdaptiveAggregateProvider : public IndexedAggregateProvider {
 public:
  /// `script` and `interp` must outlive the provider. The table the
  /// provider builds over must have change tracking enabled
  /// (EnvironmentTable::EnableChangeTracking); SimulationBuilder does
  /// this when SimulationConfig::mode == EvaluatorMode::kAdaptive.
  static Result<std::unique_ptr<AdaptiveAggregateProvider>> Create(
      const Script& script, const Interpreter& interp);

  /// Decide each family's physical strategy for this tick from the cost
  /// model, then execute it: rebuild from scratch, apply the table's
  /// change log to the existing trees, or skip the build (scan mode).
  Status BuildIndexes(const EnvironmentTable& table, const TickRandom& rnd,
                      exec::ThreadPool* pool = nullptr,
                      exec::ParallelStats* stats = nullptr) override;

  /// EXPLAIN: the indexed plan plus one decision line per family with
  /// the latest estimated costs and the observed statistics they came
  /// from (estimated vs observed, per family).
  std::string DescribePlan() const override;

  /// EXPLAIN: extends the physical annotation with the family's latest
  /// cost decision, e.g. "divisible-range-tree, family 0 -> rebuild
  /// [scan=1.1e+06 rebuild=9.2e+04 incr=n/a; probes~250 churn 0]".
  std::string DescribeAggregatePhysical(int32_t agg_index) const override;

  /// Test hook: pin every eligible family to one strategy (families for
  /// which the strategy is unavailable fall back to the model's choice).
  /// Pass nullptr to return to cost-based decisions.
  void ForceChoiceForTest(const PhysicalChoice* choice) {
    has_forced_choice_ = choice != nullptr;
    if (choice != nullptr) forced_choice_ = *choice;
  }

  /// Extends the base binding with the per-strategy decision counters
  /// ("decisions.scan" / "decisions.rebuild" / "decisions.incremental").
  void BindMetrics(obs::MetricsRegistry* registry, const std::string& prefix,
                   uint32_t extra_flags) override;

 private:
  AdaptiveAggregateProvider(const Script& script, const Interpreter& interp)
      : IndexedAggregateProvider(script, interp) {}

  /// Rows of the change log whose attr masks intersect `family`'s build
  /// dependencies, ascending. Valid only for non-structural windows.
  std::vector<RowId> DirtyRowsFor(int32_t family_index,
                                  const TableChanges& changes) const;

  /// Apply one family's delta: re-evaluate build filters, terms, and
  /// partition components for every dirty row, retract the old point
  /// from its tree and insert the new one (creating empty trees for
  /// partitions first seen mid-maintenance). Updates the family's caches
  /// so self-exclusion and later deltas see current values.
  Status ApplyFamilyDelta(Family* family, const EnvironmentTable& table,
                          const TickRandom& rnd,
                          const std::vector<RowId>& dirty);

  /// Per-family adaptive state, parallel to families_.
  struct FamilyState {
    CountEwma probes;            ///< per-tick probe demand estimate
    int64_t tally_at_decision = 0;  ///< family_probe_count at last decision
    uint64_t dep_mask = 0;       ///< build-side attribute dependencies
    CostDecision last;           ///< latest decision, for EXPLAIN
    int64_t last_observed = 0;   ///< probes observed over the last tick
    int64_t last_dirty = 0;      ///< dirty rows at the last decision
  };

  std::vector<FamilyState> states_;
  // Lifetime decision counters (bench/test observability; DescribePlan).
  // Cost decisions are pure count functions, so without a sharing
  // decorator upstream they are deterministic across thread counts; the
  // BindMetrics caller's extra_flags say which case applies.
  obs::Counter* scan_decisions_ = nullptr;
  obs::Counter* rebuild_decisions_ = nullptr;
  obs::Counter* incremental_decisions_ = nullptr;
  CostModel model_;
  bool has_forced_choice_ = false;  // test hook
  PhysicalChoice forced_choice_ = PhysicalChoice::kRebuild;
  bool first_build_done_ = false;
};

}  // namespace sgl

#endif  // SGL_OPT_ADAPTIVE_PROVIDER_H_
