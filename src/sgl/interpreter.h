// Reference interpreter: the denotational semantics of Section 4.3.
//
// Scripts are evaluated tuple-at-a-time: for each unit u, [[main]](u) runs
// against the immutable tick-start environment and streams its effects
// into an EffectBuffer (the incremental ⊕). Aggregate calls scan E
// linearly and built-in actions scan E to find affected rows — the
// faithful O(n^2)-per-tick baseline the paper's Figure 10 calls the
// "naive algorithm". The optimized engine (src/engine) must match this
// interpreter's output bit for bit.
#ifndef SGL_SGL_INTERPRETER_H_
#define SGL_SGL_INTERPRETER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "env/effect_buffer.h"
#include "env/table.h"
#include "env/value.h"
#include "sgl/analyzer.h"
#include "util/rng.h"
#include "util/status.h"

namespace sgl {

/// Bindings visible while evaluating a term: a flat stack of named values
/// (scopes push and pop ranges; lookups scan from the innermost end).
class LocalStack {
 public:
  LocalStack() { entries_.reserve(16); }

  void Push(const std::string& name, Value v) {
    entries_.emplace_back(name, std::move(v));
  }
  size_t Mark() const { return entries_.size(); }
  void PopTo(size_t mark) { entries_.resize(mark); }

  /// Innermost binding of `name`. This is the hot path of expression
  /// evaluation (every identifier lookup lands here). `slot_hint` is the
  /// analyzer's compile-time stack-slot prediction (Expr::var_slot): when
  /// the entry at that depth carries the name, the lookup is one bounds
  /// check and one verifying compare instead of a scan. The hint is just
  /// a hint — callers that build non-standard stacks (or a binding the
  /// analyzer could not place) miss the verify and fall back to the scan,
  /// so the result is always the innermost match. Scan mismatches are
  /// rejected on length and first character before the full compare.
  const Value* Find(const std::string& name, int32_t slot_hint = -1) const {
    if (slot_hint >= 0 &&
        static_cast<size_t>(slot_hint) < entries_.size() &&
        entries_[slot_hint].first == name) {
      return &entries_[slot_hint].second;
    }
    const size_t len = name.size();
    const char first = len > 0 ? name[0] : '\0';
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      const std::string& candidate = it->first;
      if (candidate.size() != len || (len > 0 && candidate[0] != first)) {
        continue;
      }
      if (candidate == name) return &it->second;
    }
    return nullptr;
  }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

/// One aggregate call site's batch of probes, handed to
/// AggregateProvider::EvalBatch: lane i (0 <= i < n) probes aggregate
/// `agg_index` for the unit at row lo + i. Every column is a lane vector
/// indexed by i.
///
/// The probe side is the aggregate signature's per-unit half (see
/// AggregateSignature::ProbeValues): one value column per partition value
/// and present range bound, in that order, and one 0/1 column per probe
/// filter. A caller that did not compute it leaves has_probe false, and
/// providers then derive it per lane, exactly as Eval does.
///
/// A result occupies `nout` doubles: one for a scalar aggregate, else one
/// per field of the declaration's row layout (AggregateResultWidth).
struct AggBatch {
  int32_t agg_index = -1;
  RowId lo = 0;
  int32_t n = 0;
  const uint8_t* active = nullptr;      // n lane flags, 1 = probe the lane
  const double* const* args = nullptr;  // scalar arguments (after the unit)
  int32_t num_args = 0;
  bool has_probe = false;
  const double* const* probe_values = nullptr;
  int32_t num_probe_values = 0;
  const uint8_t* const* probe_filters = nullptr;
  int32_t num_probe_filters = 0;
  double* const* out = nullptr;  // nout result columns
  int32_t nout = 0;
};

/// Pluggable aggregate evaluation — the seam between the naive and the
/// indexed engines (Section 6's two "pluggable versions of the aggregate
/// query evaluator"). The interpreter calls Eval for every aggregate;
/// the naive evaluator scans E, the indexed one probes the per-tick index
/// structures of Section 5.3.
///
/// `shard` identifies the caller's ParallelFor chunk (0 when sequential);
/// implementations must route any bookkeeping that Eval mutates (e.g.
/// probe counters) to per-shard storage so concurrent callers on distinct
/// shards never race. Eval must not mutate anything else: the parallel
/// decision phase calls it from many workers against the same frozen
/// pre-tick state.
class AggregateProvider {
 public:
  virtual ~AggregateProvider() = default;
  virtual Result<Value> Eval(int32_t agg_index,
                             const std::vector<Value>& scalar_args,
                             RowId u_row, const EnvironmentTable& table,
                             const TickRandom& rnd, int32_t shard = 0) = 0;

  /// Set-at-a-time probing: answer every active lane of `batch` at once,
  /// writing lane i's result to out[0..nout)[i] and 0 to every column of
  /// each inactive lane. The batch VM calls this once per aggregate call
  /// site per batch; Eval stays the per-unit reference path.
  ///
  /// Contract, lane by lane: each active lane's doubles equal (==) what
  /// Eval would return for that unit and its arguments, and the
  /// bookkeeping (probe tallies, memo entries) is what the per-lane
  /// calls would have recorded. A batch may fail whenever it is unsure —
  /// the caller then re-runs its units one at a time through Eval, which
  /// reports any real error — but it never succeeds where a lane's Eval
  /// would fail. The same `shard` rules as Eval apply.
  ///
  /// The default answers each active lane through Eval and unboxes it.
  virtual Status EvalBatch(const AggBatch& batch,
                           const EnvironmentTable& table,
                           const TickRandom& rnd, int32_t shard = 0);
};

/// Doubles one result of aggregate `agg_index` occupies in a batch: 1 for
/// a scalar aggregate, else its row layout's field count.
int32_t AggregateResultWidth(const Script& script, int32_t agg_index);

/// Box `nout` result doubles into the Value Eval returns: a scalar, or a
/// row carrying the declaration's layout.
Value BoxAggregateResult(const Script& script, int32_t agg_index,
                         const double* vals);

/// Unbox an aggregate result into `nout` doubles; false if its shape is
/// not that of a width-`nout` result.
bool UnboxAggregateResult(const Value& v, int32_t nout, double* vals);

/// Answer `batch` one lane at a time through `eval` (an Eval-shaped call
/// taking the lane's boxed arguments and unit row), unboxing each result
/// into the output columns; inactive lanes get 0. The reference loop
/// behind the default EvalBatch and every provider's per-unit fallback.
Status EvalBatchByLane(
    const AggBatch& batch,
    const std::function<Result<Value>(const std::vector<Value>&, RowId)>&
        eval);

/// Pluggable action application. The naive engine scans E per update
/// statement (the literal Eq. (4) semantics); the indexed engine resolves
/// key-equality updates in O(1) and batches area-of-effect actions through
/// the ⊕ indexes of Section 5.4. Return true if the perform was handled;
/// false falls back to the interpreter's naive scan.
///
/// As with AggregateProvider::Eval, `shard` keys all mutable bookkeeping
/// (deferred area-of-effect batches) so concurrent performs on distinct
/// shards are race-free, and per-shard batches can be merged in canonical
/// chunk order to preserve bit-exact determinism.
class ActionSink {
 public:
  virtual ~ActionSink() = default;
  virtual Result<bool> Perform(int32_t action_index,
                               const std::vector<Value>& scalar_args,
                               RowId u_row, const EnvironmentTable& table,
                               const TickRandom& rnd, EffectSink* buffer,
                               int32_t shard = 0) = 0;
};

// Concurrent-caller safety (audited for the parallel decision phase):
// every evaluation entry point below is const and keeps all mutable state
// in stack-local EvalCtx/LocalStack objects, so one Interpreter may run
// many units concurrently as long as each caller supplies its own
// EffectSink (per-worker EffectShard) and a distinct `shard` id. The only
// shared mutable paths are the provider_/sink_ plugins, whose contracts
// (above) require per-shard bookkeeping; TickRandom is a pure function and
// Value's shared RowLayout/RowValue payloads are immutable after
// construction (shared_ptr refcounts are atomic).
class Interpreter {
 public:
  /// `script` must outlive the interpreter.
  explicit Interpreter(const Script& script);

  /// Redirect aggregate calls / performs. Pass nullptr to restore the
  /// naive built-in evaluation. The pointers are not owned.
  void set_aggregate_provider(AggregateProvider* provider) {
    provider_ = provider;
  }
  void set_action_sink(ActionSink* sink) { sink_ = sink; }

  /// The installed plugins (nullptr = naive built-in evaluation). The
  /// batch VM routes its aggregate-probe (AggregateProvider::EvalBatch)
  /// and perform opcodes through the same plugins the interpreter uses.
  AggregateProvider* aggregate_provider() const { return provider_; }
  ActionSink* action_sink() const { return sink_; }

  /// Evaluate main for every unit of `table`, folding all effects into
  /// `buffer` (caller calls buffer->Begin(table) first). This is
  /// tick() = main⊕(E) ⊕ E of Eq. (6) without the post-processing step.
  Status Tick(const EnvironmentTable& table, const TickRandom& rnd,
              EffectBuffer* buffer) const;

  /// Evaluate main for a single unit row, streaming effects into `buffer`.
  /// `shard` is forwarded to the aggregate provider and action sink so
  /// concurrent callers (one per ParallelFor chunk) stay race-free.
  Status RunUnit(const EnvironmentTable& table, RowId u_row,
                 const TickRandom& rnd, EffectSink* buffer,
                 int32_t shard = 0) const;

  /// Naive evaluation of aggregate `agg_index` probed by unit `u_row` with
  /// the given scalar arguments (decl params after the unit tuple).
  /// Exposed for tests and as the fallback path of the indexed engine.
  Result<Value> EvalAggregate(int32_t agg_index,
                              const std::vector<Value>& scalar_args,
                              RowId u_row, const EnvironmentTable& table,
                              const TickRandom& rnd) const;

  /// Execute one declared action performed by `u_row` with the given
  /// scalar arguments (naive: scans E per update statement).
  Status ExecAction(int32_t action_index,
                    const std::vector<Value>& scalar_args, RowId u_row,
                    const EnvironmentTable& table, const TickRandom& rnd,
                    EffectSink* buffer) const;

  /// Evaluate an analyzed expression in an explicit binding environment.
  /// Used by the physical planner and the plan executor, which evaluate
  /// declaration sub-expressions outside a script run: `u_name`/`u_row`
  /// bind the probing unit (pass nullptr/-1 for none), `e_name`/`e_row`
  /// the scanned row, `locals` any parameter/let bindings, and
  /// `random_key` the key seeding random(i).
  Result<Value> EvalExprIn(const Expr& e, const EnvironmentTable& table,
                           const std::string* u_name, RowId u_row,
                           const std::string* e_name, RowId e_row,
                           LocalStack* locals, const TickRandom& rnd,
                           int64_t random_key) const;

  /// Condition analogue of EvalExprIn.
  Result<bool> EvalCondIn(const Cond& c, const EnvironmentTable& table,
                          const std::string* u_name, RowId u_row,
                          const std::string* e_name, RowId e_row,
                          LocalStack* locals, const TickRandom& rnd,
                          int64_t random_key) const;

  const Script& script() const { return *script_; }

 private:
  struct EvalCtx {
    const EnvironmentTable* table = nullptr;
    RowId u_row = -1;
    RowId e_row = -1;
    const std::string* u_name = nullptr;
    const std::string* e_name = nullptr;
    LocalStack* locals = nullptr;
    const TickRandom* rnd = nullptr;
    int64_t random_key = 0;  // unit key seeding random(i)
    int32_t shard = 0;       // caller's ParallelFor chunk (0 = sequential)
  };

  Result<Value> EvalExpr(const Expr& e, EvalCtx* ctx) const;
  Result<bool> EvalCond(const Cond& c, EvalCtx* ctx) const;
  Status ExecStmt(const Stmt& s, EvalCtx* ctx, EffectSink* buffer) const;
  Result<Value> EvalBuiltin(const Expr& e, EvalCtx* ctx) const;

  const Script* script_;
  AggregateProvider* provider_ = nullptr;
  ActionSink* sink_ = nullptr;
  AttrId posx_attr_ = Schema::kInvalidAttr;
  AttrId posy_attr_ = Schema::kInvalidAttr;
};

}  // namespace sgl

#endif  // SGL_SGL_INTERPRETER_H_
