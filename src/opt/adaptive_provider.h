// The adaptive aggregate evaluator: per-family physical choice by cost.
//
// The paper's Section 6 engine ships "two pluggable versions" of the
// aggregate evaluator — naive scans or per-tick index rebuilds — and the
// simulation picks one globally. This provider makes the choice *per
// physical index family, per tick*, with the cost model of opt/cost.h:
//
//   scan     low-demand families skip the build entirely and answer
//            probes through the reference evaluator;
//   rebuild  hot families rebuild from scratch, exactly like the indexed
//            evaluator.
//
// Every non-scan family rebuilds every tick, so no index state carries
// over from one tick to the next: a scan tick followed by a rebuild, a
// restored world, or an edit between ticks needs no special handling.
//
// Probing is inherited from the indexed evaluator, batch seam included:
// a VM batch (EvalBatch) is answered from its probe-side columns by the
// shared probe core on rebuilt families, and lane by lane through the
// reference evaluator on scan-mode families. Either way each lane
// tallies one call on its family, so the demand signal is the same as
// per-unit Eval's.
//
// The demand signal is the per-family probe tally observed on previous
// ticks (exponentially weighted). It is a pure count, so every decision
// is a deterministic function of the simulation state: runs stay
// bit-exact for any worker-thread count, and adaptive mode is bit-exact
// with the naive and indexed evaluators (all three answer every
// aggregate with mathematically identical results; the engine test
// suite enforces it).
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
  /// `script` and `interp` must outlive the provider.
  static Result<std::unique_ptr<AdaptiveAggregateProvider>> Create(
      const Script& script, const Interpreter& interp);

  /// Decide each family's physical strategy for this tick from the cost
  /// model, then execute it: rebuild from scratch, or skip the build
  /// (scan mode).
  Status BuildIndexes(const EnvironmentTable& table, const TickRandom& rnd,
                      exec::ThreadPool* pool = nullptr,
                      exec::ParallelStats* stats = nullptr) override;

  /// EXPLAIN: the indexed plan plus one decision line per family with
  /// the latest estimated costs and the observed statistics they came
  /// from (estimated vs observed, per family).
  std::string DescribePlan() const override;

  /// EXPLAIN: extends the physical annotation with the family's latest
  /// cost decision, e.g. "divisible-range-tree, family 0 -> rebuild
  /// [scan=1.1e+06 rebuild=9.2e+04; probes~250]".
  std::string DescribeAggregatePhysical(int32_t agg_index) const override;

  /// Test hook: pin every family to one strategy. Pass nullptr to return
  /// to cost-based decisions.
  void ForceChoiceForTest(const PhysicalChoice* choice) {
    has_forced_choice_ = choice != nullptr;
    if (choice != nullptr) forced_choice_ = *choice;
  }

  /// Extends the base binding with the per-strategy decision counters
  /// ("decisions.scan" / "decisions.rebuild").
  void BindMetrics(obs::MetricsRegistry* registry, const std::string& prefix,
                   uint32_t extra_flags) override;

 private:
  AdaptiveAggregateProvider(const Script& script, const Interpreter& interp)
      : IndexedAggregateProvider(script, interp) {}

  /// Per-family adaptive state, parallel to families_.
  struct FamilyState {
    CountEwma probes;               ///< per-tick probe demand estimate
    int64_t tally_at_decision = 0;  ///< family_probe_count at last decision
    CostDecision last;              ///< latest decision, for EXPLAIN
    int64_t last_observed = 0;      ///< probes observed over the last tick
  };

  std::vector<FamilyState> states_;
  // Lifetime decision counters (bench/test observability; DescribePlan).
  // Cost decisions are pure count functions, so without a sharing
  // decorator upstream they are deterministic across thread counts; the
  // BindMetrics caller's extra_flags say which case applies.
  obs::Counter* scan_decisions_ = nullptr;
  obs::Counter* rebuild_decisions_ = nullptr;
  CostModel model_;
  bool has_forced_choice_ = false;  // test hook
  PhysicalChoice forced_choice_ = PhysicalChoice::kRebuild;
  bool first_build_done_ = false;
};

}  // namespace sgl

#endif  // SGL_OPT_ADAPTIVE_PROVIDER_H_
