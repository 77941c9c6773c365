#include "vm/vm.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "sgl/builtins.h"

namespace sgl {
namespace vm {

namespace {

/// Queue the perform-site arguments of one lane, re-boxed into the Values
/// the action sink / naive ExecAction expect. `arg_regs` walks the
/// instruction's flattened register list.
void BoxPerformArgs(const PerformSig& sig, const std::vector<int32_t>& regs,
                    const std::vector<double>& file, int32_t lane,
                    std::vector<Value>* out) {
  size_t cursor = 0;
  for (const PerformArg& pa : sig.args) {
    const auto lane_of = [&](size_t k) {
      return file[static_cast<size_t>(regs[cursor + k]) * kMaxBatchLanes +
                  lane];
    };
    switch (pa.kind) {
      case ValueKind::kScalar:
        out->push_back(Value(lane_of(0)));
        break;
      case ValueKind::kVec2:
        out->push_back(Value(Vec2{lane_of(0), lane_of(1)}));
        break;
      case ValueKind::kRow: {
        auto row = std::make_shared<RowValue>();
        row->layout = pa.layout;
        row->vals.reserve(pa.nregs);
        for (int32_t k = 0; k < pa.nregs; ++k) row->vals.push_back(lane_of(k));
        out->push_back(Value(std::shared_ptr<const RowValue>(std::move(row))));
        break;
      }
    }
    cursor += pa.nregs;
  }
}

}  // namespace

Status BatchExecutor::Run(const CompiledProgram& prog,
                          const Interpreter& interp,
                          const EnvironmentTable& table, RowId lo, RowId hi,
                          const TickRandom& rnd, EffectSink* sink,
                          int32_t shard) {
  if (prepared_ != &prog) {
    regs_.assign(static_cast<size_t>(prog.num_regs) * kMaxBatchLanes, 0.0);
    masks_.assign(static_cast<size_t>(prog.num_masks) * kMaxBatchLanes, 0);
    // Hoisted prologue: lane-uniform constants, written by no body
    // instruction, so they persist across batches and ticks.
    for (int32_t pc = 0; pc < prog.num_hoisted; ++pc) {
      const Instr& in = prog.code[pc];
      double* d = Reg(in.dst);
      std::fill(d, d + kMaxBatchLanes, prog.consts[in.aux]);
    }
    scan_states_.assign(prog.agg_scans.size(), ScanState{});
    action_states_.assign(prog.action_scans.size(), ScanState{});
    prepared_ = &prog;
  }

  Status st = Status::OK();
  for (RowId b = lo; b < hi && st.ok(); b += kMaxBatchLanes) {
    const int32_t n = std::min<RowId>(kMaxBatchLanes, hi - b);
    st = RunBatch(prog, interp, table, b, n, rnd, sink, shard);
  }

  if (n_batches_ != 0) {
    prog.batches->Add(n_batches_, shard);
    prog.batch_dispatches->Add(n_dispatch_, shard);
    prog.scalar_lane_ops->Add(n_scalar_, shard);
    prog.agg_scan_probes->Add(n_scan_probes_, shard);
    prog.action_scan_execs->Add(n_action_execs_, shard);
    prog.interp_fallbacks->Add(n_fallback_, shard);
    n_batches_ = n_dispatch_ = n_scalar_ = n_scan_probes_ = 0;
    n_action_execs_ = n_fallback_ = 0;
  }
  return st;
}

Status BatchExecutor::RunBatch(const CompiledProgram& prog,
                               const Interpreter& interp,
                               const EnvironmentTable& table, RowId lo,
                               int32_t n, const TickRandom& rnd,
                               EffectSink* sink, int32_t shard) {
  ++n_batches_;
  pending_.clear();
  pending_args_.clear();

  uint8_t* m0 = MaskRow(0);
  std::fill(m0, m0 + kMaxBatchLanes, uint8_t{0});
  std::fill(m0, m0 + n, uint8_t{1});

  const int64_t* keys = table.Keys().data() + lo;
  AggregateProvider* provider = interp.aggregate_provider();
  bool any_err = false;

  for (size_t pc = prog.num_hoisted; pc < prog.code.size() && !any_err;
       ++pc) {
    const Instr& in = prog.code[pc];
    switch (in.op) {
      case Op::kConst: {  // only reachable if a body ever carries one
        double* d = Reg(in.dst);
        std::fill(d, d + n, prog.consts[in.aux]);
        ++n_dispatch_;
        break;
      }
      case Op::kLoadAttr: {
        double* d = Reg(in.dst);
        if (in.aux == kKeyAttrId) {
          for (int32_t i = 0; i < n; ++i) {
            d[i] = static_cast<double>(keys[i]);
          }
        } else {
          const double* col = table.Column(in.aux).data() + lo;
          std::memcpy(d, col, sizeof(double) * n);
        }
        ++n_dispatch_;
        break;
      }
      case Op::kAdd: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] + b[i];
        ++n_dispatch_;
        break;
      }
      case Op::kSub: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] - b[i];
        ++n_dispatch_;
        break;
      }
      case Op::kMul: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] * b[i];
        ++n_dispatch_;
        break;
      }
      case Op::kDiv: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        const uint8_t* m = MaskRow(in.mask);
        uint8_t err = 0;
        for (int32_t i = 0; i < n; ++i) {
          d[i] = a[i] / b[i];
          err |= static_cast<uint8_t>(b[i] == 0.0) & m[i];
        }
        any_err |= err != 0;
        ++n_dispatch_;
        break;
      }
      case Op::kMod: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        const uint8_t* m = MaskRow(in.mask);
        uint8_t err = 0;
        for (int32_t i = 0; i < n; ++i) {
          d[i] = std::fmod(a[i], b[i]);
          err |= static_cast<uint8_t>(b[i] == 0.0) & m[i];
        }
        any_err |= err != 0;
        ++n_dispatch_;
        break;
      }
      case Op::kNeg: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = -a[i];
        ++n_dispatch_;
        break;
      }
      case Op::kAbs: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = std::fabs(a[i]);
        ++n_dispatch_;
        break;
      }
      case Op::kMin2: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = std::min(a[i], b[i]);
        ++n_dispatch_;
        break;
      }
      case Op::kMax2: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = std::max(a[i], b[i]);
        ++n_dispatch_;
        break;
      }
      case Op::kSqrt: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const uint8_t* m = MaskRow(in.mask);
        uint8_t err = 0;
        for (int32_t i = 0; i < n; ++i) {
          d[i] = std::sqrt(a[i]);
          err |= static_cast<uint8_t>(a[i] < 0.0) & m[i];
        }
        any_err |= err != 0;
        ++n_dispatch_;
        break;
      }
      case Op::kFloor: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = std::floor(a[i]);
        ++n_dispatch_;
        break;
      }
      case Op::kCeil: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = std::ceil(a[i]);
        ++n_dispatch_;
        break;
      }
      case Op::kClamp: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        const double* c = Reg(in.c);
        for (int32_t i = 0; i < n; ++i) d[i] = std::clamp(a[i], b[i], c[i]);
        ++n_dispatch_;
        break;
      }
      case Op::kCmp: {
        uint8_t* d = MaskRow(in.dst);
        const double* a = Reg(in.a);
        const double* b = Reg(in.b);
        switch (in.cmp) {
          case CompareOp::kEq:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] == b[i];
            break;
          case CompareOp::kNe:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] != b[i];
            break;
          case CompareOp::kLt:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] < b[i];
            break;
          case CompareOp::kLe:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] <= b[i];
            break;
          case CompareOp::kGt:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] > b[i];
            break;
          case CompareOp::kGe:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] >= b[i];
            break;
        }
        ++n_dispatch_;
        break;
      }
      case Op::kMaskAnd: {
        uint8_t* d = MaskRow(in.dst);
        const uint8_t* a = MaskRow(in.a);
        const uint8_t* b = MaskRow(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] & b[i];
        ++n_dispatch_;
        break;
      }
      case Op::kMaskAndNot: {
        uint8_t* d = MaskRow(in.dst);
        const uint8_t* a = MaskRow(in.a);
        const uint8_t* b = MaskRow(in.b);
        for (int32_t i = 0; i < n; ++i) {
          d[i] = a[i] & static_cast<uint8_t>(b[i] ^ 1);
        }
        ++n_dispatch_;
        break;
      }
      case Op::kMaskOr: {
        uint8_t* d = MaskRow(in.dst);
        const uint8_t* a = MaskRow(in.a);
        const uint8_t* b = MaskRow(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] | b[i];
        ++n_dispatch_;
        break;
      }
      case Op::kMaskNot: {
        uint8_t* d = MaskRow(in.dst);
        const uint8_t* a = MaskRow(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] ^ 1;
        ++n_dispatch_;
        break;
      }
      case Op::kRandom: {
        double* d = Reg(in.dst);
        const double* a = Reg(in.a);
        const uint8_t* m = MaskRow(in.mask);
        for (int32_t i = 0; i < n; ++i) {
          if (m[i] == 0) {
            d[i] = 0.0;
            continue;
          }
          d[i] = static_cast<double>(rnd.DrawBounded(
              keys[i], static_cast<int64_t>(a[i]), kRandomRange));
          ++n_scalar_;
        }
        break;
      }
      case Op::kAgg: {
        const uint8_t* m = MaskRow(in.mask);
        const int32_t nout = in.b;
        // Pure naive probes (no provider plugin) run the declaration's
        // vectorized scan when one compiled; with a provider installed
        // (sharing / indexed / adaptive) its plan stays authoritative.
        const AggScanProgram* scan =
            provider == nullptr &&
                    in.aux < static_cast<int32_t>(prog.agg_scans.size())
                ? prog.agg_scans[in.aux].get()
                : nullptr;
        if (scan != nullptr && scan->nout == nout) {
          scan_args_.resize(in.args.size());
          scan_out_.resize(nout);
          for (int32_t i = 0; i < n && !any_err; ++i) {
            if (m[i] == 0) {
              for (int32_t k = 0; k < nout; ++k) Reg(in.dst + k)[i] = 0.0;
              continue;
            }
            for (size_t j = 0; j < in.args.size(); ++j) {
              scan_args_[j] = Reg(in.args[j])[i];
            }
            if (!RunAggScan(*scan, table, lo + i, scan_args_.data(),
                            scan_out_.data())) {
              any_err = true;
              break;
            }
            for (int32_t k = 0; k < nout; ++k) {
              Reg(in.dst + k)[i] = scan_out_[k];
            }
            ++n_scalar_;
          }
          break;
        }
        // The whole site goes to the provider as one batch: argument and
        // probe-side columns in, result registers out. A failed batch
        // (a lane error, or any unexpected result shape) re-runs through
        // the interpreter, which reports the exact error.
        agg_args_.clear();
        for (int32_t r : in.args) agg_args_.push_back(Reg(r));
        agg_probe_.clear();
        for (int32_t r : in.probe_values) agg_probe_.push_back(Reg(r));
        agg_filters_.clear();
        for (int32_t f : in.probe_filters) {
          agg_filters_.push_back(MaskRow(f));
        }
        agg_out_.clear();
        for (int32_t k = 0; k < nout; ++k) agg_out_.push_back(Reg(in.dst + k));
        AggBatch batch;
        batch.agg_index = in.aux;
        batch.lo = lo;
        batch.n = n;
        batch.active = m;
        batch.args = agg_args_.data();
        batch.num_args = static_cast<int32_t>(agg_args_.size());
        batch.has_probe = in.has_probe;
        batch.probe_values = agg_probe_.data();
        batch.num_probe_values = static_cast<int32_t>(agg_probe_.size());
        batch.probe_filters = agg_filters_.data();
        batch.num_probe_filters = static_cast<int32_t>(agg_filters_.size());
        batch.out = agg_out_.data();
        batch.nout = nout;
        Status st;
        if (provider != nullptr) {
          st = provider->EvalBatch(batch, table, rnd, shard);
        } else {
          st = EvalBatchByLane(
              batch, [&](const std::vector<Value>& args, RowId u_row) {
                return interp.EvalAggregate(in.aux, args, u_row, table, rnd);
              });
        }
        if (!st.ok()) {
          any_err = true;
          break;
        }
        for (int32_t i = 0; i < n; ++i) n_scalar_ += m[i];
        break;
      }
      case Op::kPerform: {
        const uint8_t* m = MaskRow(in.mask);
        const PerformSig& sig = prog.performs[in.aux];
        for (int32_t i = 0; i < n; ++i) {
          if (m[i] == 0) continue;
          Pending p;
          p.lane = i;
          p.sig = in.aux;
          p.arg_offset = static_cast<int32_t>(pending_args_.size());
          BoxPerformArgs(sig, in.args, regs_, i, &pending_args_);
          pending_.push_back(p);
          ++n_scalar_;
        }
        break;
      }
    }
  }

  if (any_err) {
    // Discard everything this batch computed and replay it unit-at-a-time:
    // the interpreter reproduces the identical per-unit error and the
    // identical partial effect log (no effect was emitted above).
    pending_.clear();
    pending_args_.clear();
    ++n_fallback_;
    if (tracer_ != nullptr) {
      char args[96];
      std::snprintf(args, sizeof(args), "{\"row_lo\":%lld,\"rows\":%d}",
                    static_cast<long long>(lo), n);
      tracer_->Instant("vm.bail", 1 + shard, shard, args);
    }
    for (int32_t i = 0; i < n; ++i) {
      SGL_RETURN_NOT_OK(interp.RunUnit(table, lo + i, rnd, sink, shard));
    }
    return Status::OK();
  }

  // Flush queued performs in (unit, program-order) order — the
  // interpreter's effect-log order. stable_sort keeps program order
  // within a lane.
  std::stable_sort(
      pending_.begin(), pending_.end(),
      [](const Pending& a, const Pending& b) { return a.lane < b.lane; });
  ActionSink* action_sink = interp.action_sink();
  for (const Pending& p : pending_) {
    const PerformSig& sig = prog.performs[p.sig];
    call_args_.assign(
        pending_args_.begin() + p.arg_offset,
        pending_args_.begin() + p.arg_offset +
            static_cast<ptrdiff_t>(sig.args.size()));
    const RowId u_row = lo + p.lane;
    bool handled = false;
    if (action_sink != nullptr) {
      SGL_ASSIGN_OR_RETURN(
          handled, action_sink->Perform(sig.action_index, call_args_, u_row,
                                        table, rnd, sink, shard));
    }
    if (!handled) {
      // Naive effect application: the action's vectorized scan when one
      // compiled and every argument is scalar, else the interpreter's
      // per-row AST walk. The scan applies nothing on error, so the
      // fallback reproduces the exact error and partial effect log.
      const ActionScanProgram* ascan =
          sig.action_index < static_cast<int32_t>(prog.action_scans.size())
              ? prog.action_scans[sig.action_index].get()
              : nullptr;
      bool applied = false;
      if (ascan != nullptr &&
          call_args_.size() == ascan->arg_regs.size()) {
        bool scalars = true;
        scan_args_.resize(call_args_.size());
        for (size_t j = 0; j < call_args_.size(); ++j) {
          if (!call_args_[j].is_scalar()) {
            scalars = false;
            break;
          }
          scan_args_[j] = call_args_[j].scalar();
        }
        if (scalars) {
          applied = RunActionScan(*ascan, table, u_row, rnd,
                                  scan_args_.data(), sink);
        }
      }
      if (!applied) {
        SGL_RETURN_NOT_OK(interp.ExecAction(sig.action_index, call_args_,
                                            u_row, table, rnd, sink));
      }
    }
  }
  return Status::OK();
}

namespace {

/// Executes the post-prologue instructions of `scan` (an AggScanProgram
/// or ActionScanProgram) over scanned rows [lo, lo + n) of `table`
/// against the caller's register files. Pure batch dispatch except
/// kRandom (action scans only; `rnd` is null for aggregate scans, whose
/// compiler never emits it), which draws per scanned row — exactly the
/// interpreter's keying. Returns false if any instruction flagged a
/// runtime error under its mask (the rows the interpreter's evaluation
/// order would fail on).
template <typename ScanProgram>
bool RunScanOps(const ScanProgram& scan, const EnvironmentTable& table,
                RowId lo, int32_t n, const TickRandom* rnd, double* regs,
                uint8_t* masks, int64_t* dispatches) {
  const auto R = [regs](int32_t r) {
    return regs + static_cast<size_t>(r) * kMaxBatchLanes;
  };
  const auto M = [masks](int32_t m) {
    return masks + static_cast<size_t>(m) * kMaxBatchLanes;
  };
  const int64_t* keys = table.Keys().data() + lo;
  bool any_err = false;

  for (size_t pc = scan.num_hoisted; pc < scan.code.size() && !any_err;
       ++pc) {
    const Instr& in = scan.code[pc];
    switch (in.op) {
      case Op::kConst: {  // only reachable if a body ever carries one
        double* d = R(in.dst);
        std::fill(d, d + n, scan.consts[in.aux]);
        break;
      }
      case Op::kLoadAttr: {
        double* d = R(in.dst);
        if (in.aux == kKeyAttrId) {
          for (int32_t i = 0; i < n; ++i) {
            d[i] = static_cast<double>(keys[i]);
          }
        } else {
          const double* col = table.Column(in.aux).data() + lo;
          std::memcpy(d, col, sizeof(double) * n);
        }
        break;
      }
      case Op::kAdd: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] + b[i];
        break;
      }
      case Op::kSub: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] - b[i];
        break;
      }
      case Op::kMul: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] * b[i];
        break;
      }
      case Op::kDiv: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        const uint8_t* m = M(in.mask);
        uint8_t err = 0;
        for (int32_t i = 0; i < n; ++i) {
          d[i] = a[i] / b[i];
          err |= static_cast<uint8_t>(b[i] == 0.0) & m[i];
        }
        any_err |= err != 0;
        break;
      }
      case Op::kMod: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        const uint8_t* m = M(in.mask);
        uint8_t err = 0;
        for (int32_t i = 0; i < n; ++i) {
          d[i] = std::fmod(a[i], b[i]);
          err |= static_cast<uint8_t>(b[i] == 0.0) & m[i];
        }
        any_err |= err != 0;
        break;
      }
      case Op::kNeg: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = -a[i];
        break;
      }
      case Op::kAbs: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = std::fabs(a[i]);
        break;
      }
      case Op::kMin2: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = std::min(a[i], b[i]);
        break;
      }
      case Op::kMax2: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = std::max(a[i], b[i]);
        break;
      }
      case Op::kSqrt: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const uint8_t* m = M(in.mask);
        uint8_t err = 0;
        for (int32_t i = 0; i < n; ++i) {
          d[i] = std::sqrt(a[i]);
          err |= static_cast<uint8_t>(a[i] < 0.0) & m[i];
        }
        any_err |= err != 0;
        break;
      }
      case Op::kFloor: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = std::floor(a[i]);
        break;
      }
      case Op::kCeil: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = std::ceil(a[i]);
        break;
      }
      case Op::kClamp: {
        double* d = R(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        const double* c = R(in.c);
        for (int32_t i = 0; i < n; ++i) d[i] = std::clamp(a[i], b[i], c[i]);
        break;
      }
      case Op::kCmp: {
        uint8_t* d = M(in.dst);
        const double* a = R(in.a);
        const double* b = R(in.b);
        switch (in.cmp) {
          case CompareOp::kEq:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] == b[i];
            break;
          case CompareOp::kNe:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] != b[i];
            break;
          case CompareOp::kLt:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] < b[i];
            break;
          case CompareOp::kLe:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] <= b[i];
            break;
          case CompareOp::kGt:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] > b[i];
            break;
          case CompareOp::kGe:
            for (int32_t i = 0; i < n; ++i) d[i] = a[i] >= b[i];
            break;
        }
        break;
      }
      case Op::kMaskAnd: {
        uint8_t* d = M(in.dst);
        const uint8_t* a = M(in.a);
        const uint8_t* b = M(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] & b[i];
        break;
      }
      case Op::kMaskAndNot: {
        uint8_t* d = M(in.dst);
        const uint8_t* a = M(in.a);
        const uint8_t* b = M(in.b);
        for (int32_t i = 0; i < n; ++i) {
          d[i] = a[i] & static_cast<uint8_t>(b[i] ^ 1);
        }
        break;
      }
      case Op::kMaskOr: {
        uint8_t* d = M(in.dst);
        const uint8_t* a = M(in.a);
        const uint8_t* b = M(in.b);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] | b[i];
        break;
      }
      case Op::kMaskNot: {
        uint8_t* d = M(in.dst);
        const uint8_t* a = M(in.a);
        for (int32_t i = 0; i < n; ++i) d[i] = a[i] ^ 1;
        break;
      }
      case Op::kRandom: {
        if (rnd == nullptr) return false;  // aggregate scans never draw
        double* d = R(in.dst);
        const double* a = R(in.a);
        const uint8_t* m = M(in.mask);
        for (int32_t i = 0; i < n; ++i) {
          d[i] = m[i] == 0 ? 0.0
                           : static_cast<double>(rnd->DrawBounded(
                                 keys[i], static_cast<int64_t>(a[i]),
                                 kRandomRange));
        }
        break;
      }
      case Op::kAgg:
      case Op::kPerform:
        // The scan compiler never emits these; treat one as an error so
        // the batch falls back to the interpreter.
        return false;
    }
    ++*dispatches;
  }
  return !any_err;
}

}  // namespace

bool BatchExecutor::RunAggScan(const AggScanProgram& scan,
                               const EnvironmentTable& table, RowId u_row,
                               const double* args, double* out) {
  ScanState& state = scan_states_[scan.agg_index];
  if (!state.prepared) {
    state.regs.assign(static_cast<size_t>(scan.num_regs) * kMaxBatchLanes,
                      0.0);
    state.masks.assign(static_cast<size_t>(scan.num_masks) * kMaxBatchLanes,
                       0);
    for (int32_t pc = 0; pc < scan.num_hoisted; ++pc) {
      const Instr& in = scan.code[pc];
      double* d = state.regs.data() +
                  static_cast<size_t>(in.dst) * kMaxBatchLanes;
      std::fill(d, d + kMaxBatchLanes, scan.consts[in.aux]);
    }
    state.prepared = true;
  }
  // Probe-uniform registers: the scalar arguments and the probing unit's
  // attribute values, broadcast lane-wide for this probe.
  for (size_t j = 0; j < scan.arg_regs.size(); ++j) {
    double* d = state.regs.data() +
                static_cast<size_t>(scan.arg_regs[j]) * kMaxBatchLanes;
    std::fill(d, d + kMaxBatchLanes, args[j]);
  }
  for (const auto& [attr, reg] : scan.u_attr_regs) {
    double* d =
        state.regs.data() + static_cast<size_t>(reg) * kMaxBatchLanes;
    std::fill(d, d + kMaxBatchLanes, table.Get(u_row, attr));
  }

  const int32_t rows = table.NumRows();
  const uint8_t* where =
      state.masks.data() +
      static_cast<size_t>(scan.where_mask) * kMaxBatchLanes;

  if (scan.metric_reg >= 0) {
    // Row-returning mode (nearest/argmin/argmax): the metric computes in
    // lanes; the best row resolves sequentially in row order with the
    // interpreter's exact tiebreak (smaller metric, then smaller key).
    const double* metric =
        state.regs.data() +
        static_cast<size_t>(scan.metric_reg) * kMaxBatchLanes;
    bool found = false;
    double best_value = 0.0;
    int64_t best_key = 0;
    RowId best_row = -1;
    for (RowId b = 0; b < rows; b += kMaxBatchLanes) {
      const int32_t n = std::min<RowId>(kMaxBatchLanes, rows - b);
      uint8_t* m0 = state.masks.data();
      std::fill(m0, m0 + kMaxBatchLanes, uint8_t{0});
      std::fill(m0, m0 + n, uint8_t{1});
      if (!RunScanOps(scan, table, b, n, nullptr, state.regs.data(),
                      state.masks.data(), &n_dispatch_)) {
        return false;
      }
      for (int32_t i = 0; i < n; ++i) {
        if (where[i] == 0) continue;
        const int64_t key = table.KeyAt(b + i);
        if (!found || metric[i] < best_value ||
            (metric[i] == best_value && key < best_key)) {
          found = true;
          best_value = metric[i];
          best_key = key;
          best_row = b + i;
        }
      }
    }
    // Finalization matches the interpreter's row result: found flag,
    // squared distance (nearest only), then every schema attribute of
    // the best row; all zeros when nothing matched.
    std::fill(out, out + scan.nout, 0.0);
    if (found) {
      out[0] = 1.0;
      if (scan.row_func == AggFunc::kNearest) out[1] = best_value;
      for (AttrId a = 0; a < table.schema().NumAttrs(); ++a) {
        out[2 + a] = table.Get(best_row, a);
      }
    }
    ++n_scan_probes_;
    return true;
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t items = scan.items.size();
  int64_t count = 0;
  acc_sums_.assign(items, 0.0);
  acc_sumsq_.assign(items, 0.0);
  acc_mins_.assign(items, kInf);
  acc_maxs_.assign(items, -kInf);

  for (RowId b = 0; b < rows; b += kMaxBatchLanes) {
    const int32_t n = std::min<RowId>(kMaxBatchLanes, rows - b);
    uint8_t* m0 = state.masks.data();
    std::fill(m0, m0 + kMaxBatchLanes, uint8_t{0});
    std::fill(m0, m0 + n, uint8_t{1});
    if (!RunScanOps(scan, table, b, n, nullptr, state.regs.data(),
                    state.masks.data(), &n_dispatch_)) {
      return false;
    }
    // Sequential accumulation in row order: float addition is not
    // associative, so this loop — not the vector ops above — is what
    // keeps the scan bit-exact against the interpreter's row loop.
    for (int32_t i = 0; i < n; ++i) {
      if (where[i] == 0) continue;
      ++count;
      for (size_t k = 0; k < items; ++k) {
        if (scan.items[k].func == AggFunc::kCount) continue;
        const double t =
            state.regs[static_cast<size_t>(scan.items[k].term_reg) *
                           kMaxBatchLanes +
                       i];
        acc_sums_[k] += t;
        acc_sumsq_[k] += t * t;
        acc_mins_[k] = std::min(acc_mins_[k], t);
        acc_maxs_[k] = std::max(acc_maxs_[k], t);
      }
    }
  }

  // Finalization formulas match Interpreter::EvalAggregate exactly.
  for (size_t k = 0; k < items; ++k) {
    switch (scan.items[k].func) {
      case AggFunc::kCount:
        out[k] = static_cast<double>(count);
        break;
      case AggFunc::kSum:
        out[k] = acc_sums_[k];
        break;
      case AggFunc::kAvg:
        out[k] =
            count == 0 ? 0.0 : acc_sums_[k] / static_cast<double>(count);
        break;
      case AggFunc::kMin:
        out[k] = count == 0 ? 0.0 : acc_mins_[k];
        break;
      case AggFunc::kMax:
        out[k] = count == 0 ? 0.0 : acc_maxs_[k];
        break;
      case AggFunc::kStddev: {
        if (count == 0) {
          out[k] = 0.0;
          break;
        }
        const double cnt = static_cast<double>(count);
        const double mean = acc_sums_[k] / cnt;
        const double var = acc_sumsq_[k] / cnt - mean * mean;
        out[k] = var <= 0.0 ? 0.0 : std::sqrt(var);
        break;
      }
      default:
        out[k] = 0.0;
        break;
    }
  }
  ++n_scan_probes_;
  return true;
}

bool BatchExecutor::RunActionScan(const ActionScanProgram& scan,
                                  const EnvironmentTable& table, RowId u_row,
                                  const TickRandom& rnd, const double* args,
                                  EffectSink* sink) {
  ScanState& state = action_states_[scan.action_index];
  if (!state.prepared) {
    state.regs.assign(static_cast<size_t>(scan.num_regs) * kMaxBatchLanes,
                      0.0);
    state.masks.assign(static_cast<size_t>(scan.num_masks) * kMaxBatchLanes,
                       0);
    for (int32_t pc = 0; pc < scan.num_hoisted; ++pc) {
      const Instr& in = scan.code[pc];
      double* d = state.regs.data() +
                  static_cast<size_t>(in.dst) * kMaxBatchLanes;
      std::fill(d, d + kMaxBatchLanes, scan.consts[in.aux]);
    }
    state.prepared = true;
  }
  // Exec-uniform registers: the scalar arguments and the performing
  // unit's attribute values, broadcast lane-wide for this exec.
  for (size_t j = 0; j < scan.arg_regs.size(); ++j) {
    double* d = state.regs.data() +
                static_cast<size_t>(scan.arg_regs[j]) * kMaxBatchLanes;
    std::fill(d, d + kMaxBatchLanes, args[j]);
  }
  for (const auto& [attr, reg] : scan.u_attr_regs) {
    double* d =
        state.regs.data() + static_cast<size_t>(reg) * kMaxBatchLanes;
    std::fill(d, d + kMaxBatchLanes, table.Get(u_row, attr));
  }

  // Matched effects buffer per update so that nothing reaches the sink
  // unless the whole exec is error-free: on a flagged lane the caller
  // falls back to Interpreter::ExecAction against an untouched sink,
  // which reproduces the identical error and partial effect log.
  effect_bufs_.resize(scan.updates.size());
  for (std::vector<PendingEffect>& buf : effect_bufs_) buf.clear();

  const int32_t rows = table.NumRows();
  for (RowId b = 0; b < rows; b += kMaxBatchLanes) {
    const int32_t n = std::min<RowId>(kMaxBatchLanes, rows - b);
    uint8_t* m0 = state.masks.data();
    std::fill(m0, m0 + kMaxBatchLanes, uint8_t{0});
    std::fill(m0, m0 + n, uint8_t{1});
    if (!RunScanOps(scan, table, b, n, &rnd, state.regs.data(),
                    state.masks.data(), &n_dispatch_)) {
      return false;
    }
    for (size_t ui = 0; ui < scan.updates.size(); ++ui) {
      const ActionScanUpdate& update = scan.updates[ui];
      const uint8_t* where =
          state.masks.data() +
          static_cast<size_t>(update.where_mask) * kMaxBatchLanes;
      std::vector<PendingEffect>& buf = effect_bufs_[ui];
      for (int32_t i = 0; i < n; ++i) {
        if (where[i] == 0) continue;
        for (const ActionScanSet& set : update.sets) {
          PendingEffect pe;
          pe.row = b + i;
          pe.attr = set.attr;
          pe.op = set.op;
          pe.value =
              state.regs[static_cast<size_t>(set.value_reg) *
                             kMaxBatchLanes +
                         i];
          pe.priority =
              set.op == SetOp::kSetPriority
                  ? state.regs[static_cast<size_t>(set.priority_reg) *
                                   kMaxBatchLanes +
                               i]
                  : 0.0;
          buf.push_back(pe);
        }
      }
    }
  }

  // Apply in the interpreter's order: update-major, then row-major (the
  // append order above), then set-item order. Accumulation into the sink
  // in this exact order keeps float combining bit-exact.
  for (const std::vector<PendingEffect>& buf : effect_bufs_) {
    for (const PendingEffect& pe : buf) {
      if (pe.op == SetOp::kSetPriority) {
        sink->AccumulateSet(pe.row, pe.attr, pe.value, pe.priority);
      } else {
        sink->Accumulate(pe.row, pe.attr, pe.value);
      }
    }
  }
  ++n_action_execs_;
  return true;
}

}  // namespace vm
}  // namespace sgl
