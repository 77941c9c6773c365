// The per-family cost model behind the adaptive evaluator.
//
// The paper's Section 6 engine always rebuilds every deduplicated index
// family from scratch each tick; its own cost discussion, though, makes
// clear that an index only pays off when the probe savings exceed the
// build cost — which varies per signature (how many passes the build
// evaluates per row), per scenario (a global-sum aggregate is answered by
// one near-free scan; a kD family may be probed thousands of times), and
// per tick (demand rises and falls). This model makes that choice
// explicit: each tick, every physical index family is assigned one of
//
//   kScan     don't build; member aggregates fall back to the reference
//             scan (the naive evaluator, per probe);
//   kRebuild  the paper's default: build the family's per-partition
//             structures from scratch, probe in O(log n) (or O(1) for a
//             partition-totals family, which builds no tree).
//
// Estimates are in abstract cost units (calibrated against Release-build
// measurements; only ratios matter). All model inputs are *counts* —
// table rows, per-family probe tallies, build passes, partitions — never
// wall-clock times, so decisions are a deterministic function of
// the simulation state and stay bit-identical for any worker-thread
// count. Expected probe demand is an exponentially-weighted average of
// the tallies observed on previous ticks, so decisions adapt mid-run
// (classic mid-query re-optimization, tick-granular).
#ifndef SGL_OPT_COST_H_
#define SGL_OPT_COST_H_

#include <cstdint>
#include <string>

namespace sgl {

/// Physical strategy the model assigns to one index family for one tick.
enum class PhysicalChoice : uint8_t { kScan, kRebuild };

const char* PhysicalChoiceName(PhysicalChoice choice);

/// Deterministic exponentially-weighted estimate of a per-tick count.
/// Observe() folds the latest observation in with weight 1/4 — enough
/// inertia that one quiet tick does not drop a hot index, while a real
/// demand shift wins within a few ticks.
class CountEwma {
 public:
  /// Current estimate; `fallback` until the first observation.
  double Get(double fallback) const { return seeded_ ? value_ : fallback; }
  bool seeded() const { return seeded_; }

  void Observe(int64_t count) {
    const double c = static_cast<double>(count);
    value_ = seeded_ ? (3.0 * value_ + c) / 4.0 : c;
    seeded_ = true;
  }

 private:
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Everything the model knows about one family at decision time.
struct FamilyCostInputs {
  int64_t rows = 0;            ///< table rows (index candidates)
  double expected_probes = 0;  ///< EWMA of the family's per-tick probes
  int64_t build_passes = 1;    ///< per-row expressions a build evaluates
  int64_t partitions = 1;      ///< structures probed per aggregate call
  /// The family builds a tree per partition (O(n log n) build, a
  /// log n descent per probe); false for partition totals, built in one
  /// linear pass and probed without a descent.
  bool builds_tree = true;
};

/// Per-alternative cost estimates (abstract units), for EXPLAIN.
struct CostEstimate {
  double scan = 0.0;
  double rebuild = 0.0;
};

/// The model's verdict for one family and tick.
struct CostDecision {
  PhysicalChoice choice = PhysicalChoice::kRebuild;
  CostEstimate est;
};

/// Calibrated per-operation constants. The defaults were fit against
/// Release-build bench_suite phase timings (index-build vs decision) on
/// the registered scenarios; they only need to be right within a factor
/// of a few, because the regimes they separate are orders of magnitude
/// apart (probes x rows vs rows log rows).
struct CostConstants {
  double scan_row = 90.0;        ///< naive eval, per probe per table row
  double probe_base = 250.0;     ///< per probe: filters, partition values
  double probe_log = 30.0;       ///< per probe per log2(rows), trees only
  double probe_partition = 60.0; ///< per probe per extra partition
  double build_row_pass = 90.0;  ///< per row per build expression pass
  double build_point = 60.0;     ///< tree construction, per row per log2
};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostConstants constants) : k_(constants) {}

  const CostConstants& constants() const { return k_; }

  /// Choose the cheaper physical strategy for one family this tick.
  /// Ties break toward kRebuild (the paper's default); the comparison is
  /// deterministic because every input is.
  CostDecision Choose(const FamilyCostInputs& in) const;

 private:
  CostConstants k_;
};

/// Render "scan=1.2e+06 rebuild=3.4e+05" for EXPLAIN output.
std::string DescribeEstimate(const CostEstimate& est);

}  // namespace sgl

#endif  // SGL_OPT_COST_H_
