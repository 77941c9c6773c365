// Register-style bytecode for compiled SGL decision evaluation.
//
// The compiler (vm/compiler.h) lowers an analyzed, normalized Script's
// function bodies — main with every user function call inlined (the
// analyzer guarantees the call graph is acyclic) — into one straight-line
// program of batch instructions. There are no jumps: `if` statements
// compile to lane masks (predication), so a batch of units executes every
// instruction exactly once with one dispatch per opcode per batch, the
// lowering the paper's "compile the query, don't interpret the script"
// direction (ROADMAP item 1) calls for.
//
// Register model
//   * f64 lane-vector registers, pure SSA: each register is written by
//     exactly one instruction. Vec2 values occupy two registers, aggregate
//     row results k consecutive registers — so field accesses, tuple
//     construction, and let-aliasing cost zero instructions.
//   * uint8 mask registers predicate control flow and error checks.
//     Mask 0 is the all-active batch mask.
//   * Constants (literals, folded const-arithmetic) load once in a
//     hoisted prologue — unit- and tick-invariant, annotated by the
//     disassembler.
//
// Aggregate calls: a kAgg site is preceded by the batch instructions
// computing its probe side — the aggregate signature's partition values,
// range bounds and probe filters (opt/signature.h), lowered with the
// declaration's unit tuple bound to the deciding unit and its parameters
// aliased to the site's argument registers, under the site's mask — so
// the provider receives every lane's probe as columns (one EvalBatch per
// site per batch) instead of walking the declaration's AST per unit.
//
// Error semantics: instructions that can fail at runtime (div/mod by
// zero, sqrt of negative) compute branch-free across all lanes and flag
// errors only under their error mask (the exact lanes on which the
// interpreter would evaluate the operand, including refined short-circuit
// masks inside and/or conditions). Any flagged lane aborts the batch and
// the executor re-runs those units through the interpreter, which then
// reports the identical per-unit error (vm/vm.h). A probe side is
// evaluated whole where the per-unit path may stop early (a false probe
// filter), so it can flag a lane that would not fail; the re-run then
// simply succeeds.
#ifndef SGL_VM_BYTECODE_H_
#define SGL_VM_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/value.h"
#include "obs/metrics.h"
#include "sgl/analyzer.h"

namespace sgl {
namespace vm {

enum class Op : uint8_t {
  // ---- batch opcodes: one tight loop over all lanes ----
  kConst,     // dst[i] = consts[aux]                  (hoisted prologue)
  kLoadAttr,  // dst[i] = table(lo + i, aux)           (aux 0 = unit key)
  kAdd,       // dst[i] = a[i] + b[i]
  kSub,       // dst[i] = a[i] - b[i]
  kMul,       // dst[i] = a[i] * b[i]
  kDiv,       // dst[i] = a[i] / b[i]; flags b[i]==0 under mask
  kMod,       // dst[i] = fmod(a[i], b[i]); flags b[i]==0 under mask
  kNeg,       // dst[i] = -a[i]
  kAbs,       // dst[i] = fabs(a[i])
  kMin2,      // dst[i] = min(a[i], b[i])
  kMax2,      // dst[i] = max(a[i], b[i])
  kSqrt,      // dst[i] = sqrt(a[i]); flags a[i]<0 under mask
  kFloor,     // dst[i] = floor(a[i])
  kCeil,      // dst[i] = ceil(a[i])
  kClamp,     // dst[i] = clamp(a[i], b[i], c[i])
  kCmp,       // mask dst[i] = cmp(a[i], b[i])         (cmp field)
  kMaskAnd,   // mask dst[i] = mask a[i] & mask b[i]
  kMaskAndNot,// mask dst[i] = mask a[i] & !mask b[i]
  kMaskOr,    // mask dst[i] = mask a[i] | mask b[i]
  kMaskNot,   // mask dst[i] = !mask a[i]
  // ---- scalar opcodes: per-lane loop, active lanes only ----
  kRandom,    // dst[i] = DrawBounded(key[i], int64(a[i]), kRandomRange)
  kAgg,       // regs[dst..dst+b) = aggregate aux(args...), zero if inactive;
              // one AggregateProvider::EvalBatch call per batch
  kPerform,   // queue pending perform of PerformSig aux with args regs
};

const char* OpName(Op op);

/// True for opcodes that do per-lane work outside the register file
/// (aggregate probes, effect emission, RNG draws); each active lane
/// counts as one scalar lane-op.
bool OpIsScalar(Op op);

/// One instruction. Operand meaning varies by opcode (see Op comments):
/// dst/a/b/c index f64 registers for value ops and mask registers for
/// mask ops; `mask` predicates scalar ops and error checks; `aux` holds
/// the constant-pool / attribute / aggregate / perform-signature index.
struct Instr {
  Op op;
  CompareOp cmp = CompareOp::kEq;  // kCmp only
  int32_t dst = -1;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
  int32_t mask = 0;
  int32_t aux = -1;
  int32_t line = 0;                // source line (error context)
  std::vector<int32_t> args;       // kAgg / kPerform argument registers
  // kAgg only: the aggregate's probe side, computed by ordinary batch
  // instructions ahead of the site under its mask (has_probe false when
  // the site has none: no signature handed in, a naive-scan signature,
  // or a probe side the compiler declined).
  bool has_probe = false;
  std::vector<int32_t> probe_values;   // f64 registers, ProbeValues order
  std::vector<int32_t> probe_filters;  // mask registers, one per filter
};

/// Compile-time shape of one perform argument, used at flush time to
/// re-box register lanes into the interpreter Values the action sink and
/// the naive ExecAction expect.
struct PerformArg {
  ValueKind kind = ValueKind::kScalar;
  int32_t nregs = 1;
  std::shared_ptr<const RowLayout> layout;  // kRow only
};

/// One distinct `perform Action(...)` site in the program.
struct PerformSig {
  int32_t action_index = -1;
  std::vector<PerformArg> args;  // scalar args (after the unit tuple)
};

/// One select item of a vectorized aggregate scan: its accumulator kind
/// and the register holding the per-row term (-1 for count(*), whose
/// accumulator needs no term).
struct AggScanItem {
  AggFunc func = AggFunc::kCount;
  int32_t term_reg = -1;
};

/// A compiled columnar scan for one aggregate declaration: the kAgg
/// opcode's fast path when no aggregate provider is installed (pure naive
/// evaluation). The where condition and every item term lower to batch
/// instructions executed over sub-batches of E rows — one dispatch per
/// opcode per 256 rows instead of an AST walk per row — while the
/// accumulators (count, sums, sums of squares, mins, maxs) update
/// sequentially in row order, reproducing the interpreter's float
/// accumulation bit-exactly.
///
/// Register model mirrors CompiledProgram, with two extra uniform
/// classes written by the executor rather than by instructions: the
/// probe's scalar arguments (`arg_regs`) and the probing unit's
/// attributes (`u_attr_regs`), both lane-uniform per probe. kLoadAttr
/// here loads the *scanned* row's column (aux 0 = unit key).
///
/// Row-returning aggregates (nearest/argmin/argmax) vectorize too: the
/// per-row metric (squared distance for nearest, the term for argmin,
/// its negation for argmax) computes in lanes, and the best row resolves
/// sequentially in row order with the interpreter's exact key tiebreak.
/// Declarations the conservative compiler declines stay interpreted
/// probes; the owning CompiledProgram records the reason in agg_notes.
struct AggScanProgram {
  int32_t agg_index = -1;  // names for the disassembler
  int32_t num_regs = 0;
  int32_t num_masks = 1;   // mask 0 = valid rows of the sub-batch
  int32_t num_hoisted = 0;
  int32_t nout = 1;        // result width the kAgg site expects
  std::vector<double> consts;
  std::vector<Instr> code;
  std::vector<int32_t> arg_regs;  // scalar args, probe-uniform broadcasts
  std::vector<std::pair<AttrId, int32_t>> u_attr_regs;  // probing-unit attrs
  int32_t where_mask = 0;  // match mask after the body runs
  std::vector<AggScanItem> items;      // divisible aggregates only
  AggFunc row_func = AggFunc::kCount;  // row-returning mode when set
  int32_t metric_reg = -1;             // row mode: per-row metric lanes
  std::shared_ptr<const RowLayout> layout;  // row / multi-item results
};

/// One set item of a vectorized action update: the target attribute, its
/// combine op, and the registers holding the per-row effect value (and,
/// for set-with-priority, the priority).
struct ActionScanSet {
  AttrId attr = 0;
  SetOp op = SetOp::kAdd;
  int32_t value_reg = -1;
  int32_t priority_reg = -1;  // kSetPriority only
};

/// One `update e where ... set ...` block of an action scan.
struct ActionScanUpdate {
  int32_t where_mask = 0;
  std::vector<ActionScanSet> sets;
};

/// A compiled columnar scan for one action declaration: the perform
/// flush's fast path when no action sink is installed (naive effect
/// application). Update conditions and effect values lower to batch
/// instructions over E rows — random() stays legal here, drawn per
/// scanned row exactly as the interpreter does — and the matched
/// effects accumulate in the interpreter's order (update-major, then
/// row-major, then set-item order). Register model and uniforms mirror
/// AggScanProgram.
struct ActionScanProgram {
  int32_t action_index = -1;
  int32_t num_regs = 0;
  int32_t num_masks = 1;
  int32_t num_hoisted = 0;
  std::vector<double> consts;
  std::vector<Instr> code;
  std::vector<int32_t> arg_regs;
  std::vector<std::pair<AttrId, int32_t>> u_attr_regs;
  std::vector<ActionScanUpdate> updates;
};

/// A compiled decision program for one script session. Immutable after
/// compilation except for the execution counters, which many batch
/// executors (one per ParallelFor chunk) bump concurrently on their own
/// per-shard counter slots.
struct CompiledProgram {
  const Script* script = nullptr;  // names for the disassembler; not owned
  int32_t num_regs = 0;
  int32_t num_masks = 1;           // mask 0 = all-active
  int32_t num_hoisted = 0;         // leading kConst prologue instructions
  int32_t num_batch_ops = 0;       // static opcode counts (Explain)
  int32_t num_scalar_ops = 0;
  std::vector<double> consts;
  std::vector<Instr> code;
  std::vector<PerformSig> performs;

  /// Vectorized aggregate scans, one slot per aggregate declaration of the
  /// script. A null slot means kAgg probes that declaration through the
  /// interpreter; agg_notes[i] records why.
  std::vector<std::unique_ptr<AggScanProgram>> agg_scans;
  std::vector<std::string> agg_notes;

  /// Vectorized action scans, one slot per action declaration. A null
  /// slot means the perform flush executes that action through the
  /// interpreter; action_notes[i] records why.
  std::vector<std::unique_ptr<ActionScanProgram>> action_scans;
  std::vector<std::string> action_notes;

  // Execution counter handles (per-shard padded; totals only). A "batch
  // dispatch" is one batch opcode executed over one batch (decision
  // batches and scan sub-batches both count); a "scalar lane-op" is one
  // active lane of a scalar opcode; an "agg scan probe" is one aggregate
  // evaluated via its vectorized scan; an "action scan exec" is one
  // performed action applied via its vectorized scan; a fallback is one
  // batch re-run through the interpreter after a flagged lane error.
  // CompileProgram binds them to `own_metrics`; SimulationBuilder rebinds
  // into the simulation's registry before any tick.
  obs::Counter* batches = nullptr;
  obs::Counter* batch_dispatches = nullptr;
  obs::Counter* scalar_lane_ops = nullptr;
  obs::Counter* agg_scan_probes = nullptr;
  obs::Counter* action_scan_execs = nullptr;
  obs::Counter* interp_fallbacks = nullptr;
  std::unique_ptr<obs::MetricsRegistry> own_metrics;

  /// Rebind the execution counters into `registry` under `prefix` (e.g.
  /// "script.battle.vm."). Batch/dispatch/fallback counts depend on where
  /// chunk boundaries fall and are flagged execution-dependent; lane-op,
  /// scan-probe, and action-exec counts tally per-unit work and are
  /// deterministic for any thread count. `extra_flags` is OR-ed into
  /// every counter.
  void BindMetrics(obs::MetricsRegistry* registry, const std::string& prefix,
                   uint32_t extra_flags);

  /// Annotated listing: one line per instruction, hoisted constants
  /// marked, aggregate/action/attribute operands named via `script`.
  std::string Disassemble() const;
};

}  // namespace vm
}  // namespace sgl

#endif  // SGL_VM_BYTECODE_H_
