// Batch-vectorized decision VM.
//
// A BatchExecutor runs a CompiledProgram (vm/bytecode.h) over a contiguous
// row range of the environment table, in sub-batches of up to
// kMaxBatchLanes units. Batch opcodes execute as one dispatch per opcode
// per sub-batch — a tight lane loop over columnar register storage, the
// form compilers auto-vectorize — while the three scalar opcodes (random
// draws, aggregate probes, and effect emission) touch active lanes only.
// An aggregate site (kAgg) with a provider installed makes one
// AggregateProvider::EvalBatch call per batch: its active-lane mask,
// argument columns and probe-side columns (partition values, range
// bounds and probe-filter outcomes, computed by the ordinary batch
// instructions before it) go in, and the provider writes the site's
// result registers directly. Without a provider the site runs the
// declaration's vectorized scan per active lane, or the interpreter's
// reference scan when none compiled.
//
// Bit-exactness contract with the interpreter:
//   * Performs are queued during evaluation and flushed after the batch in
//     (unit, program-order) order — exactly the interpreter's unit-at-a-
//     time effect-log order. A flush error returns immediately: earlier
//     units' effects are already emitted, as they would be under the
//     interpreter.
//   * Instructions that can fail (div/mod by zero, sqrt of negative) run
//     branch-free over all lanes and raise a flag only under their error
//     mask — the exact lanes on which the interpreter's evaluation order
//     (including and/or short-circuiting) would reach the operand. Any
//     flagged lane — or a failed EvalBatch, which may fail whenever it is
//     unsure but never succeeds where a lane would fail — aborts the
//     batch before any effect is emitted, and the whole sub-batch re-runs
//     per-unit through Interpreter::RunUnit (aggregates then go through
//     the provider's per-unit Eval), which reproduces the identical
//     per-unit error and partial effect log.
//
// One executor serves one ParallelFor chunk (a batch = a chunk), so all
// scratch state is private and the only shared writes — the program's
// execution counters and the tracer's event buffers — land in the
// executor's own per-shard slots.
#ifndef SGL_VM_VM_H_
#define SGL_VM_VM_H_

#include <cstdint>
#include <vector>

#include "env/effect_buffer.h"
#include "env/table.h"
#include "env/value.h"
#include "obs/trace.h"
#include "sgl/interpreter.h"
#include "util/rng.h"
#include "util/status.h"
#include "vm/bytecode.h"

namespace sgl {
namespace vm {

/// Maximum units per sub-batch: small enough that the live register file
/// stays cache-resident, large enough to amortize dispatch.
inline constexpr int32_t kMaxBatchLanes = 256;

class BatchExecutor {
 public:
  /// Execute `prog` for rows [lo, hi) of `table`, streaming effects into
  /// `sink`. `interp` is the owning session's interpreter — its aggregate
  /// provider / action sink plugins serve the scalar opcodes, and it is
  /// the per-unit fallback after a flagged lane error. `shard` keys the
  /// plugins' per-shard bookkeeping (the caller's ParallelFor chunk).
  Status Run(const CompiledProgram& prog, const Interpreter& interp,
             const EnvironmentTable& table, RowId lo, RowId hi,
             const TickRandom& rnd, EffectSink* sink, int32_t shard);

  /// Emit "vm.bail" instants (interpreter fallbacks) to `tracer` (null =
  /// off; the engine wires this only when tracing is enabled).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// One queued `perform`: flush re-boxes its argument Values (stored flat
  /// in pending_args_) and routes them through the action sink.
  struct Pending {
    int32_t lane;
    int32_t sig;
    int32_t arg_offset;
  };

  Status RunBatch(const CompiledProgram& prog, const Interpreter& interp,
                  const EnvironmentTable& table, RowId lo, int32_t n,
                  const TickRandom& rnd, EffectSink* sink, int32_t shard);

  /// Vectorized aggregate probe: runs `scan` over every row of `table`
  /// for probing unit `u_row`, writing the finalized values (exactly the
  /// interpreter's accumulation, best-row tracking, and finalization
  /// arithmetic) into `out[0..nout)`. Returns false if any lane flagged
  /// a runtime error — the caller then falls back to the interpreter for
  /// the whole batch.
  bool RunAggScan(const AggScanProgram& scan, const EnvironmentTable& table,
                  RowId u_row, const double* args, double* out);

  /// Vectorized action execution: runs `scan` (every update's condition
  /// and effect values) over every row of `table` for performing unit
  /// `u_row`, buffering matched effects and applying them to `sink` in
  /// the interpreter's order (update-major, then row-major, then
  /// set-item order). Applies nothing and returns false if any lane
  /// flagged a runtime error — the caller then falls back to
  /// Interpreter::ExecAction, which reproduces the identical error and
  /// partial effect log.
  bool RunActionScan(const ActionScanProgram& scan,
                     const EnvironmentTable& table, RowId u_row,
                     const TickRandom& rnd, const double* args,
                     EffectSink* sink);

  double* Reg(int32_t r) {
    return regs_.data() + static_cast<size_t>(r) * kMaxBatchLanes;
  }
  uint8_t* MaskRow(int32_t m) {
    return masks_.data() + static_cast<size_t>(m) * kMaxBatchLanes;
  }

  // Register file and mask file, reg-major (each register is a contiguous
  // lane vector). Sized for `prepared_`; the hoisted kConst prologue is
  // re-run only when the program changes (its registers are written by no
  // other instruction and are lane-uniform, so they survive across
  // batches and ticks — the unit-invariant hoisting payoff).
  const CompiledProgram* prepared_ = nullptr;
  std::vector<double> regs_;
  std::vector<uint8_t> masks_;

  /// Per-aggregate scan register files (indexed like agg_scans). Lazily
  /// prepared: the hoisted kConst prologue is written on first use and —
  /// like the decision program's — survives across probes and ticks;
  /// only the probe-uniform registers rewrite per probe.
  struct ScanState {
    bool prepared = false;
    std::vector<double> regs;
    std::vector<uint8_t> masks;
  };
  std::vector<ScanState> scan_states_;
  std::vector<ScanState> action_states_;  // indexed like action_scans
  std::vector<double> scan_args_;  // scratch: one probe's scalar args
  std::vector<double> scan_out_;   // scratch: one probe's item values
  std::vector<double> acc_sums_;   // row-order accumulators (bit-exact)
  std::vector<double> acc_sumsq_;
  std::vector<double> acc_mins_;
  std::vector<double> acc_maxs_;

  /// One matched effect of an action scan, buffered so the whole exec
  /// applies only if no lane errored (else the interpreter fallback must
  /// start from an untouched sink).
  struct PendingEffect {
    RowId row;
    AttrId attr;
    SetOp op;
    double value;
    double priority;
  };
  std::vector<std::vector<PendingEffect>> effect_bufs_;  // per update

  std::vector<Pending> pending_;
  std::vector<Value> pending_args_;
  std::vector<Value> call_args_;  // scratch for action-sink calls

  // Scratch column tables of one kAgg site's AggBatch.
  std::vector<const double*> agg_args_;
  std::vector<const double*> agg_probe_;
  std::vector<const uint8_t*> agg_filters_;
  std::vector<double*> agg_out_;

  obs::Tracer* tracer_ = nullptr;

  // Locally accumulated counters, flushed to the program's per-shard
  // counter slots once per Run call.
  int64_t n_batches_ = 0;
  int64_t n_dispatch_ = 0;
  int64_t n_scalar_ = 0;
  int64_t n_scan_probes_ = 0;
  int64_t n_action_execs_ = 0;
  int64_t n_fallback_ = 0;
};

}  // namespace vm
}  // namespace sgl

#endif  // SGL_VM_VM_H_
