#include "vm/compiler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sgl/builtins.h"

namespace sgl {
namespace vm {

namespace {

/// Compile-time value: the register span an expression evaluates into.
/// Scalars span one register, Vec2 two, aggregate rows one per field.
struct CVal {
  ValueKind kind = ValueKind::kScalar;
  std::vector<int32_t> regs;
  std::shared_ptr<const RowLayout> layout;  // kRow only

  bool IsScalar() const { return kind == ValueKind::kScalar; }
  /// Mirrors Value::ConvertibleToVec (a two-field row acts as a Vec2).
  bool ConvertibleToVec() const {
    return kind == ValueKind::kVec2 ||
           (kind == ValueKind::kRow && regs.size() == 2);
  }
};

/// One named binding in an inline frame. Bindings made inside an if
/// branch stay visible (mirroring the interpreter's stack, which `if`
/// never pops) but are conditional: reading one would need per-lane
/// binding state, so the compiler bails instead.
struct LocalEntry {
  std::string name;
  CVal val;
  bool conditional = false;
};

/// One inlined function activation: its unit-tuple name and its bindings
/// (parameters first, then lets).
struct Frame {
  const std::string* u_name = nullptr;
  std::vector<LocalEntry> locals;
};

/// Bit pattern of a double, the interning key for the constant pool
/// (0.0 and -0.0 must stay distinct: they divide differently).
uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class Compiler {
 public:
  explicit Compiler(
      const Script& script,
      const std::vector<AggregateSignature>* signatures = nullptr)
      : script_(&script), signatures_(signatures) {}

  /// Lower one aggregate declaration to a columnar scan program: the
  /// where condition and every item term (or the row-returning metric)
  /// become batch instructions over E rows. Scalar parameters and
  /// probing-unit attributes compile to uniform registers the executor
  /// broadcasts per probe. Returns Unimplemented (with the reason) for
  /// declarations that must stay interpreted probes.
  Result<std::unique_ptr<AggScanProgram>> RunScan(int32_t agg_index) {
    const AggregateDecl& decl = script_->program.aggregates[agg_index];
    prog_ = std::make_unique<CompiledProgram>();
    in_scan_ = true;
    scan_row_var_ = &decl.row_var;
    scan_u_var_ = &decl.params[0];
    auto scan = std::make_unique<AggScanProgram>();
    scan->agg_index = agg_index;

    frames_.push_back(Frame{&decl.params[0], {}});
    for (size_t i = 1; i < decl.params.size(); ++i) {
      const int32_t reg = NewReg();
      scan->arg_regs.push_back(reg);
      frames_.back().locals.push_back(LocalEntry{
          decl.params[i], CVal{ValueKind::kScalar, {reg}, nullptr}, false});
    }

    SGL_ASSIGN_OR_RETURN(int32_t where, CompileCond(*decl.where));
    scan->where_mask = where;
    // Terms evaluate only on matching rows, so their error masks (and
    // the rows whose values reach the accumulators) refine to the match.
    cur_mask_ = where;
    if (decl.ReturnsRow()) {
      const AggItem& item = decl.items[0];
      scan->row_func = item.func;
      if (item.func == AggFunc::kNearest) {
        const AttrId px = script_->schema.Find("posx");
        const AttrId py = script_->schema.Find("posy");
        if (px == Schema::kInvalidAttr || py == Schema::kInvalidAttr) {
          return Bail("nearest() without posx/posy attributes", decl.line);
        }
        const int32_t dx = EmitBin(Op::kSub, AttrReg(px),
                                   ScanUniformAttrReg(px), decl.line);
        const int32_t dy = EmitBin(Op::kSub, AttrReg(py),
                                   ScanUniformAttrReg(py), decl.line);
        scan->metric_reg =
            EmitBin(Op::kAdd, EmitBin(Op::kMul, dx, dx, decl.line),
                    EmitBin(Op::kMul, dy, dy, decl.line), decl.line);
      } else {
        // argmin minimizes the term; argmax minimizes its negation —
        // the same metric the interpreter tracks.
        SGL_ASSIGN_OR_RETURN(
            int32_t term, CompileScalar(*item.term, "argmin/argmax terms"));
        scan->metric_reg = item.func == AggFunc::kArgmax
                               ? EmitUn(Op::kNeg, term, item.term->line)
                               : term;
      }
      scan->layout = script_->agg_layouts[agg_index];
      scan->nout = static_cast<int32_t>(scan->layout->fields.size());
    } else {
      for (const AggItem& item : decl.items) {
        AggScanItem out;
        out.func = item.func;
        if (item.func != AggFunc::kCount) {
          SGL_ASSIGN_OR_RETURN(out.term_reg,
                               CompileScalar(*item.term, "aggregate terms"));
        }
        scan->items.push_back(out);
      }
      if (decl.items.size() > 1) {
        scan->layout = script_->agg_layouts[agg_index];
      }
      scan->nout = static_cast<int32_t>(std::max<size_t>(decl.items.size(),
                                                         1));
    }
    frames_.pop_back();

    scan->num_hoisted = static_cast<int32_t>(prologue_.size());
    scan->code = std::move(prologue_);
    scan->code.insert(scan->code.end(),
                      std::make_move_iterator(body_.begin()),
                      std::make_move_iterator(body_.end()));
    scan->num_regs = prog_->num_regs;
    scan->num_masks = prog_->num_masks;
    scan->consts = std::move(prog_->consts);
    scan->u_attr_regs = std::move(scan_u_attrs_);
    return scan;
  }

  /// Lower one action declaration to a columnar update scan: every
  /// update's where condition and set-item values (and priorities)
  /// become one straight-line batch program over E rows; the runner
  /// applies each update's matched effects under its mask. random()
  /// stays legal here — the kRandom opcode draws per scanned row, which
  /// is exactly the interpreter's keying.
  Result<std::unique_ptr<ActionScanProgram>> RunActionScan(
      int32_t action_index) {
    const ActionDecl& decl = script_->program.actions[action_index];
    prog_ = std::make_unique<CompiledProgram>();
    in_scan_ = true;
    scan_allow_random_ = true;
    scan_u_var_ = &decl.params[0];
    auto scan = std::make_unique<ActionScanProgram>();
    scan->action_index = action_index;

    frames_.push_back(Frame{&decl.params[0], {}});
    for (size_t i = 1; i < decl.params.size(); ++i) {
      const int32_t reg = NewReg();
      scan->arg_regs.push_back(reg);
      frames_.back().locals.push_back(LocalEntry{
          decl.params[i], CVal{ValueKind::kScalar, {reg}, nullptr}, false});
    }

    for (const UpdateStmt& update : decl.updates) {
      scan_row_var_ = &update.row_var;
      cur_mask_ = 0;
      SGL_ASSIGN_OR_RETURN(int32_t where, CompileCond(*update.where));
      ActionScanUpdate out;
      out.where_mask = where;
      // Values and priorities evaluate only on matching rows.
      cur_mask_ = where;
      for (const SetItem& item : update.sets) {
        ActionScanSet set;
        set.attr = item.attr_id;
        set.op = item.op;
        SGL_ASSIGN_OR_RETURN(set.value_reg,
                             CompileScalar(*item.value, "effect values"));
        if (item.op == SetOp::kSetPriority) {
          SGL_ASSIGN_OR_RETURN(
              set.priority_reg,
              CompileScalar(*item.priority, "effect priorities"));
        }
        out.sets.push_back(set);
      }
      scan->updates.push_back(std::move(out));
    }
    frames_.pop_back();

    scan->num_hoisted = static_cast<int32_t>(prologue_.size());
    scan->code = std::move(prologue_);
    scan->code.insert(scan->code.end(),
                      std::make_move_iterator(body_.begin()),
                      std::make_move_iterator(body_.end()));
    scan->num_regs = prog_->num_regs;
    scan->num_masks = prog_->num_masks;
    scan->consts = std::move(prog_->consts);
    scan->u_attr_regs = std::move(scan_u_attrs_);
    return scan;
  }

  Result<std::unique_ptr<CompiledProgram>> Run() {
    prog_ = std::make_unique<CompiledProgram>();
    prog_->script = script_;
    if (script_->main_index < 0) {
      return Status::Unimplemented("vm: script has no main function");
    }
    const FunctionDecl& main =
        script_->program.functions[script_->main_index];
    frames_.push_back(Frame{&main.params[0], {}});
    SGL_RETURN_NOT_OK(CompileStmt(*main.body));
    frames_.pop_back();

    prog_->num_hoisted = static_cast<int32_t>(prologue_.size());
    prog_->code = std::move(prologue_);
    prog_->code.insert(prog_->code.end(),
                       std::make_move_iterator(body_.begin()),
                       std::make_move_iterator(body_.end()));
    for (const Instr& in : prog_->code) {
      if (OpIsScalar(in.op)) {
        ++prog_->num_scalar_ops;
      } else {
        ++prog_->num_batch_ops;
      }
    }
    return std::move(prog_);
  }

 private:
  static Status Bail(const std::string& reason, int32_t line) {
    return Status::Unimplemented("vm: ", reason, " (line ", line, ")");
  }

  int32_t NewReg() { return prog_->num_regs++; }
  int32_t NewMask() { return prog_->num_masks++; }

  /// Intern `v` into the constant pool; its kConst load lands in the
  /// hoisted prologue (unit- and tick-invariant).
  int32_t ConstReg(double v) {
    auto it = const_regs_.find(BitsOf(v));
    if (it != const_regs_.end()) return it->second;
    int32_t reg = NewReg();
    Instr in;
    in.op = Op::kConst;
    in.dst = reg;
    in.aux = static_cast<int32_t>(prog_->consts.size());
    prog_->consts.push_back(v);
    prologue_.push_back(std::move(in));
    const_regs_[BitsOf(v)] = reg;
    reg_const_[reg] = v;
    return reg;
  }

  /// True (with the value) if `reg` holds a compile-time constant.
  bool KnownConst(int32_t reg, double* v) const {
    auto it = reg_const_.find(reg);
    if (it == reg_const_.end()) return false;
    *v = it->second;
    return true;
  }

  /// Uniform register for a probing-unit attribute in an aggregate scan:
  /// the executor broadcasts table(u_row, attr) into it once per probe.
  int32_t ScanUniformAttrReg(AttrId attr) {
    auto it = scan_u_attr_regs_.find(attr);
    if (it != scan_u_attr_regs_.end()) return it->second;
    int32_t reg = NewReg();
    scan_u_attrs_.emplace_back(attr, reg);
    scan_u_attr_regs_[attr] = reg;
    return reg;
  }

  /// Load of a unit attribute, CSE'd program-wide: loads are pure and
  /// unmasked, so one load serves every (possibly inlined) use site.
  int32_t AttrReg(AttrId attr) {
    auto it = attr_regs_.find(attr);
    if (it != attr_regs_.end()) return it->second;
    int32_t reg = NewReg();
    Instr in;
    in.op = Op::kLoadAttr;
    in.dst = reg;
    in.aux = attr;
    body_.push_back(std::move(in));
    attr_regs_[attr] = reg;
    return reg;
  }

  /// Emit a scalar binary op with constant folding. Division/mod by a
  /// constant zero is never folded: the emitted instruction flags the
  /// error at runtime and the batch falls back to the interpreter, which
  /// reports the identical message.
  int32_t EmitBin(Op op, int32_t a, int32_t b, int32_t line) {
    double av = 0.0;
    double bv = 0.0;
    if (KnownConst(a, &av) && KnownConst(b, &bv)) {
      switch (op) {
        case Op::kAdd: return ConstReg(av + bv);
        case Op::kSub: return ConstReg(av - bv);
        case Op::kMul: return ConstReg(av * bv);
        case Op::kDiv:
          if (bv != 0.0) return ConstReg(av / bv);
          break;
        case Op::kMod:
          if (bv != 0.0) return ConstReg(std::fmod(av, bv));
          break;
        case Op::kMin2: return ConstReg(std::min(av, bv));
        case Op::kMax2: return ConstReg(std::max(av, bv));
        default: break;
      }
    }
    Instr in;
    in.op = op;
    in.dst = NewReg();
    in.a = a;
    in.b = b;
    in.mask = cur_mask_;
    in.line = line;
    body_.push_back(in);
    return in.dst;
  }

  int32_t EmitUn(Op op, int32_t a, int32_t line) {
    double av = 0.0;
    if (KnownConst(a, &av)) {
      switch (op) {
        case Op::kNeg: return ConstReg(-av);
        case Op::kAbs: return ConstReg(std::fabs(av));
        case Op::kSqrt:
          // Fold only well-defined draws; sqrt(-c) must keep its runtime
          // error, so it stays an instruction.
          if (av >= 0.0) return ConstReg(std::sqrt(av));
          break;
        case Op::kFloor: return ConstReg(std::floor(av));
        case Op::kCeil: return ConstReg(std::ceil(av));
        default: break;
      }
    }
    Instr in;
    in.op = op;
    in.dst = NewReg();
    in.a = a;
    in.mask = cur_mask_;
    in.line = line;
    body_.push_back(in);
    return in.dst;
  }

  int32_t EmitMask(Op op, int32_t a, int32_t b) {
    Instr in;
    in.op = op;
    in.dst = NewMask();
    in.a = a;
    in.b = b;
    body_.push_back(in);
    return in.dst;
  }

  Result<const CVal*> LookupLocal(const std::string& name, int32_t line) {
    const Frame& frame = frames_.back();
    for (auto it = frame.locals.rbegin(); it != frame.locals.rend(); ++it) {
      if (it->name != name) continue;
      if (it->conditional) {
        return Bail("local '" + name + "' is only conditionally bound",
                    line);
      }
      return &it->val;
    }
    return Bail("unbound name '" + name + "'", line);
  }

  Result<int32_t> CompileScalar(const Expr& e, const char* what) {
    SGL_ASSIGN_OR_RETURN(CVal v, CompileExpr(e));
    if (!v.IsScalar()) return Bail(std::string(what) + " must be scalar",
                                   e.line);
    return v.regs[0];
  }

  Result<CVal> CompileExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return CVal{ValueKind::kScalar, {ConstReg(e.number)}, nullptr};
      case ExprKind::kVarRef: {
        SGL_ASSIGN_OR_RETURN(const CVal* v, LookupLocal(e.name, e.line));
        return *v;
      }
      case ExprKind::kAttrRef: {
        if (in_scan_) {
          // Inside a scan the row variable's attributes load columnar
          // (the scanned axis); the probing/performing unit's attributes
          // are lane-uniform per probe.
          if (scan_row_var_ != nullptr && e.tuple_var == *scan_row_var_) {
            return CVal{ValueKind::kScalar, {AttrReg(e.attr_id)}, nullptr};
          }
          if (e.tuple_var == *scan_u_var_) {
            return CVal{ValueKind::kScalar,
                        {ScanUniformAttrReg(e.attr_id)},
                        nullptr};
          }
          return Bail("attribute of unbound tuple '" + e.tuple_var + "'",
                      e.line);
        }
        if (e.tuple_var != *frames_.back().u_name) {
          return Bail("attribute of non-unit tuple '" + e.tuple_var + "'",
                      e.line);
        }
        return CVal{ValueKind::kScalar, {AttrReg(e.attr_id)}, nullptr};
      }
      case ExprKind::kFieldAccess: {
        SGL_ASSIGN_OR_RETURN(CVal base, CompileExpr(*e.args[0]));
        if (base.kind == ValueKind::kVec2) {
          if (e.attr == "x") {
            return CVal{ValueKind::kScalar, {base.regs[0]}, nullptr};
          }
          if (e.attr == "y") {
            return CVal{ValueKind::kScalar, {base.regs[1]}, nullptr};
          }
          return Bail("vector has no field '" + e.attr + "'", e.line);
        }
        if (base.kind == ValueKind::kRow) {
          int32_t idx = base.layout->Find(e.attr);
          if (idx < 0) {
            return Bail("aggregate result has no field '" + e.attr + "'",
                        e.line);
          }
          return CVal{ValueKind::kScalar, {base.regs[idx]}, nullptr};
        }
        return Bail("field access '." + e.attr + "' on a scalar", e.line);
      }
      case ExprKind::kUnaryMinus: {
        SGL_ASSIGN_OR_RETURN(CVal v, CompileExpr(*e.args[0]));
        if (v.IsScalar()) {
          return CVal{ValueKind::kScalar,
                      {EmitUn(Op::kNeg, v.regs[0], e.line)},
                      nullptr};
        }
        if (v.ConvertibleToVec()) {
          // Matches the interpreter: vector negation is `v * -1.0`.
          int32_t neg1 = ConstReg(-1.0);
          return CVal{ValueKind::kVec2,
                      {EmitBin(Op::kMul, v.regs[0], neg1, e.line),
                       EmitBin(Op::kMul, v.regs[1], neg1, e.line)},
                      nullptr};
        }
        return Bail("cannot negate this value", e.line);
      }
      case ExprKind::kTuple: {
        SGL_ASSIGN_OR_RETURN(int32_t x,
                             CompileScalar(*e.args[0], "tuple components"));
        SGL_ASSIGN_OR_RETURN(int32_t y,
                             CompileScalar(*e.args[1], "tuple components"));
        return CVal{ValueKind::kVec2, {x, y}, nullptr};
      }
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kCall:
        if (e.is_aggregate) return CompileAggCall(e);
        return CompileBuiltin(e);
    }
    return Status::Internal("vm: unreachable expr kind");
  }

  Result<CVal> CompileBinary(const Expr& e) {
    SGL_ASSIGN_OR_RETURN(CVal l, CompileExpr(*e.args[0]));
    SGL_ASSIGN_OR_RETURN(CVal r, CompileExpr(*e.args[1]));
    if (l.IsScalar() && r.IsScalar()) {
      Op op;
      switch (e.op) {
        case BinaryOp::kAdd: op = Op::kAdd; break;
        case BinaryOp::kSub: op = Op::kSub; break;
        case BinaryOp::kMul: op = Op::kMul; break;
        case BinaryOp::kDiv: op = Op::kDiv; break;
        case BinaryOp::kMod: op = Op::kMod; break;
        default: return Status::Internal("vm: unreachable binary op");
      }
      return CVal{ValueKind::kScalar,
                  {EmitBin(op, l.regs[0], r.regs[0], e.line)},
                  nullptr};
    }
    if (l.ConvertibleToVec() && r.ConvertibleToVec() &&
        (e.op == BinaryOp::kAdd || e.op == BinaryOp::kSub)) {
      Op op = e.op == BinaryOp::kAdd ? Op::kAdd : Op::kSub;
      return CVal{ValueKind::kVec2,
                  {EmitBin(op, l.regs[0], r.regs[0], e.line),
                   EmitBin(op, l.regs[1], r.regs[1], e.line)},
                  nullptr};
    }
    if (e.op == BinaryOp::kMul) {
      const CVal* vec = nullptr;
      const CVal* s = nullptr;
      if (l.ConvertibleToVec() && r.IsScalar()) {
        vec = &l;
        s = &r;
      } else if (l.IsScalar() && r.ConvertibleToVec()) {
        vec = &r;
        s = &l;
      }
      if (vec != nullptr) {
        return CVal{ValueKind::kVec2,
                    {EmitBin(Op::kMul, vec->regs[0], s->regs[0], e.line),
                     EmitBin(Op::kMul, vec->regs[1], s->regs[0], e.line)},
                    nullptr};
      }
    }
    if (e.op == BinaryOp::kDiv && l.ConvertibleToVec() && r.IsScalar()) {
      return CVal{ValueKind::kVec2,
                  {EmitBin(Op::kDiv, l.regs[0], r.regs[0], e.line),
                   EmitBin(Op::kDiv, l.regs[1], r.regs[0], e.line)},
                  nullptr};
    }
    return Bail("type error in arithmetic", e.line);
  }

  Result<CVal> CompileAggCall(const Expr& e) {
    if (in_scan_) {
      // The analyzer rejects nested aggregates; stay conservative here.
      return Bail("nested aggregate probe", e.line);
    }
    const AggregateDecl& decl = script_->program.aggregates[e.call_id];
    Instr in;
    in.op = Op::kAgg;
    in.aux = e.call_id;
    in.mask = cur_mask_;
    in.line = e.line;
    for (size_t i = 1; i < e.args.size(); ++i) {
      SGL_ASSIGN_OR_RETURN(int32_t reg,
                           CompileScalar(*e.args[i], "aggregate arguments"));
      in.args.push_back(reg);
    }
    in.c = static_cast<int32_t>(in.args.size());
    if (signatures_ != nullptr &&
        static_cast<size_t>(e.call_id) < signatures_->size()) {
      CompileProbeSide((*signatures_)[e.call_id], decl, &in);
    }
    const bool is_row = decl.ReturnsRow() || decl.items.size() > 1;
    std::shared_ptr<const RowLayout> layout = script_->agg_layouts[e.call_id];
    const int32_t nout =
        is_row ? static_cast<int32_t>(layout->fields.size()) : 1;
    const int32_t dst0 = prog_->num_regs;
    in.dst = dst0;
    prog_->num_regs += nout;
    in.b = nout;
    body_.push_back(std::move(in));
    CVal out;
    out.kind = is_row ? ValueKind::kRow : ValueKind::kScalar;
    for (int32_t k = 0; k < nout; ++k) out.regs.push_back(dst0 + k);
    if (is_row) out.layout = std::move(layout);
    return out;
  }

  /// Lower aggregate `decl`'s probe side (sig.ProbeValues() and
  /// sig.probe_filters) for a kAgg site: the declaration's unit tuple is
  /// the deciding unit, its scalar parameters alias the site's argument
  /// registers, and every instruction runs under the site's mask, so the
  /// usual error masks flag exactly the lanes that reach the probe. A
  /// naive-scan signature has no probe side; one the compiler cannot
  /// lower leaves the site without it (the provider then derives it per
  /// lane), and any instructions already emitted only compute unused
  /// registers — their error flags, if any, send the batch down the
  /// interpreter path, which is always safe.
  void CompileProbeSide(const AggregateSignature& sig,
                        const AggregateDecl& decl, Instr* in) {
    if (sig.kind == IndexKind::kNaive) return;
    Frame frame{&decl.params[0], {}};
    for (size_t i = 1; i < decl.params.size(); ++i) {
      frame.locals.push_back(LocalEntry{
          decl.params[i],
          CVal{ValueKind::kScalar, {in->args[i - 1]}, nullptr},
          false});
    }
    frames_.push_back(std::move(frame));
    auto lower = [&]() -> Status {
      for (const Expr* expr : sig.ProbeValues()) {
        SGL_ASSIGN_OR_RETURN(int32_t reg, CompileScalar(*expr, "probe values"));
        in->probe_values.push_back(reg);
      }
      for (const Cond* filter : sig.probe_filters) {
        SGL_ASSIGN_OR_RETURN(int32_t mask, CompileCond(*filter));
        in->probe_filters.push_back(mask);
      }
      return Status::OK();
    };
    in->has_probe = lower().ok();
    frames_.pop_back();
    if (!in->has_probe) {
      in->probe_values.clear();
      in->probe_filters.clear();
    }
  }

  Result<CVal> CompileBuiltin(const Expr& e) {
    const BuiltinFn fn = static_cast<BuiltinFn>(e.call_id);
    std::vector<int32_t> args;
    args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) {
      SGL_ASSIGN_OR_RETURN(int32_t reg,
                           CompileScalar(*a, "builtin arguments"));
      args.push_back(reg);
    }
    switch (fn) {
      case BuiltinFn::kAbs:
        return CVal{ValueKind::kScalar,
                    {EmitUn(Op::kAbs, args[0], e.line)},
                    nullptr};
      case BuiltinFn::kMin:
        return CVal{ValueKind::kScalar,
                    {EmitBin(Op::kMin2, args[0], args[1], e.line)},
                    nullptr};
      case BuiltinFn::kMax:
        return CVal{ValueKind::kScalar,
                    {EmitBin(Op::kMax2, args[0], args[1], e.line)},
                    nullptr};
      case BuiltinFn::kSqrt:
        return CVal{ValueKind::kScalar,
                    {EmitUn(Op::kSqrt, args[0], e.line)},
                    nullptr};
      case BuiltinFn::kFloor:
        return CVal{ValueKind::kScalar,
                    {EmitUn(Op::kFloor, args[0], e.line)},
                    nullptr};
      case BuiltinFn::kCeil:
        return CVal{ValueKind::kScalar,
                    {EmitUn(Op::kCeil, args[0], e.line)},
                    nullptr};
      case BuiltinFn::kClamp: {
        double v = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        if (KnownConst(args[0], &v) && KnownConst(args[1], &lo) &&
            KnownConst(args[2], &hi) && lo <= hi) {
          return CVal{ValueKind::kScalar,
                      {ConstReg(std::clamp(v, lo, hi))},
                      nullptr};
        }
        Instr in;
        in.op = Op::kClamp;
        in.dst = NewReg();
        in.a = args[0];
        in.b = args[1];
        in.c = args[2];
        in.line = e.line;
        body_.push_back(in);
        return CVal{ValueKind::kScalar, {in.dst}, nullptr};
      }
      case BuiltinFn::kRandom: {
        if (in_scan_ && !scan_allow_random_) {
          // The analyzer rejects random() in aggregates; stay conservative.
          return Bail("random() inside an aggregate", e.line);
        }
        Instr in;
        in.op = Op::kRandom;
        in.dst = NewReg();
        in.a = args[0];
        in.mask = cur_mask_;
        in.line = e.line;
        body_.push_back(in);
        return CVal{ValueKind::kScalar, {in.dst}, nullptr};
      }
    }
    return Status::Internal("vm: unreachable builtin");
  }

  /// Lower a condition to a mask register. `cur_mask_` is the error
  /// context: within and/or it is refined to exactly the lanes on which
  /// the interpreter's short-circuit evaluation would reach the operand,
  /// so runtime error flags (div-by-zero inside a condition) fire for
  /// precisely the units the interpreter would fail on.
  Result<int32_t> CompileCond(const Cond& c) {
    switch (c.kind) {
      case CondKind::kTrue:
        return 0;  // mask 0: all lanes active
      case CondKind::kCompare: {
        SGL_ASSIGN_OR_RETURN(int32_t l,
                             CompileScalar(*c.lhs, "comparison operands"));
        SGL_ASSIGN_OR_RETURN(int32_t r,
                             CompileScalar(*c.rhs, "comparison operands"));
        Instr in;
        in.op = Op::kCmp;
        in.cmp = c.op;
        in.dst = NewMask();
        in.a = l;
        in.b = r;
        in.line = c.line;
        body_.push_back(in);
        return in.dst;
      }
      case CondKind::kNot: {
        SGL_ASSIGN_OR_RETURN(int32_t inner, CompileCond(*c.left));
        return EmitMask(Op::kMaskNot, inner, -1);
      }
      case CondKind::kAnd: {
        SGL_ASSIGN_OR_RETURN(int32_t l, CompileCond(*c.left));
        const int32_t saved = cur_mask_;
        cur_mask_ = EmitMask(Op::kMaskAnd, saved, l);
        auto r = CompileCond(*c.right);
        cur_mask_ = saved;
        if (!r.ok()) return r.status();
        return EmitMask(Op::kMaskAnd, l, r.value());
      }
      case CondKind::kOr: {
        SGL_ASSIGN_OR_RETURN(int32_t l, CompileCond(*c.left));
        const int32_t saved = cur_mask_;
        cur_mask_ = EmitMask(Op::kMaskAndNot, saved, l);
        auto r = CompileCond(*c.right);
        cur_mask_ = saved;
        if (!r.ok()) return r.status();
        return EmitMask(Op::kMaskOr, l, r.value());
      }
    }
    return Status::Internal("vm: unreachable cond kind");
  }

  /// Flag every binding made since `depth` as conditional: it exists on
  /// the interpreter's stack only for lanes that took the branch.
  void MarkConditionalFrom(size_t depth) {
    std::vector<LocalEntry>& locals = frames_.back().locals;
    for (size_t i = depth; i < locals.size(); ++i) {
      locals[i].conditional = true;
    }
  }

  Status CompileStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kLet: {
        SGL_ASSIGN_OR_RETURN(CVal v, CompileExpr(*s.let_value));
        frames_.back().locals.push_back(
            LocalEntry{s.let_name, std::move(v), false});
        return Status::OK();
      }
      case StmtKind::kIf: {
        SGL_ASSIGN_OR_RETURN(int32_t cond, CompileCond(*s.cond));
        const int32_t saved = cur_mask_;
        cur_mask_ = EmitMask(Op::kMaskAnd, saved, cond);
        size_t depth = frames_.back().locals.size();
        Status st = CompileStmt(*s.then_branch);
        MarkConditionalFrom(depth);
        cur_mask_ = saved;
        SGL_RETURN_NOT_OK(st);
        if (s.else_branch != nullptr) {
          cur_mask_ = EmitMask(Op::kMaskAndNot, saved, cond);
          depth = frames_.back().locals.size();
          st = CompileStmt(*s.else_branch);
          MarkConditionalFrom(depth);
          cur_mask_ = saved;
          SGL_RETURN_NOT_OK(st);
        }
        return Status::OK();
      }
      case StmtKind::kBlock: {
        const size_t mark = frames_.back().locals.size();
        for (const StmtPtr& child : s.body) {
          SGL_RETURN_NOT_OK(CompileStmt(*child));
        }
        frames_.back().locals.resize(mark);
        return Status::OK();
      }
      case StmtKind::kPerform: {
        std::vector<CVal> argv;
        argv.reserve(s.args.size());
        for (size_t i = 1; i < s.args.size(); ++i) {
          SGL_ASSIGN_OR_RETURN(CVal v, CompileExpr(*s.args[i]));
          argv.push_back(std::move(v));
        }
        if (s.target_action >= 0) {
          PerformSig sig;
          sig.action_index = s.target_action;
          Instr in;
          in.op = Op::kPerform;
          in.mask = cur_mask_;
          in.line = s.line;
          for (const CVal& v : argv) {
            PerformArg pa;
            pa.kind = v.kind;
            pa.nregs = static_cast<int32_t>(v.regs.size());
            pa.layout = v.layout;
            sig.args.push_back(std::move(pa));
            in.args.insert(in.args.end(), v.regs.begin(), v.regs.end());
          }
          in.aux = static_cast<int32_t>(prog_->performs.size());
          prog_->performs.push_back(std::move(sig));
          body_.push_back(std::move(in));
          return Status::OK();
        }
        // User function: inline under the caller's mask. The analyzer
        // guarantees the call graph is acyclic, so this terminates.
        const FunctionDecl& fn =
            script_->program.functions[s.target_function];
        Frame frame;
        frame.u_name = &fn.params[0];
        for (size_t i = 1; i < fn.params.size(); ++i) {
          frame.locals.push_back(
              LocalEntry{fn.params[i], std::move(argv[i - 1]), false});
        }
        frames_.push_back(std::move(frame));
        Status st = CompileStmt(*fn.body);
        frames_.pop_back();
        return st;
      }
    }
    return Status::Internal("vm: unreachable stmt kind");
  }

  const Script* script_;
  // Per-aggregate signatures whose probe sides kAgg sites compute (null
  // or empty: no site gets one).
  const std::vector<AggregateSignature>* signatures_;
  std::unique_ptr<CompiledProgram> prog_;
  std::vector<Instr> prologue_;  // hoisted kConst loads
  std::vector<Instr> body_;
  std::unordered_map<uint64_t, int32_t> const_regs_;  // value bits -> reg
  std::unordered_map<int32_t, double> reg_const_;     // reg -> known value
  std::unordered_map<AttrId, int32_t> attr_regs_;     // row-attr load CSE
  std::vector<Frame> frames_;
  int32_t cur_mask_ = 0;
  // Scan mode (RunScan / RunActionScan): the scanned row variable (per
  // update for actions), the probing/performing unit variable, whether
  // random() is legal (action effect values only), and the probe-uniform
  // registers for the unit's attributes.
  bool in_scan_ = false;
  bool scan_allow_random_ = false;
  const std::string* scan_row_var_ = nullptr;
  const std::string* scan_u_var_ = nullptr;
  std::vector<std::pair<AttrId, int32_t>> scan_u_attrs_;
  std::unordered_map<AttrId, int32_t> scan_u_attr_regs_;
};

}  // namespace

Result<std::unique_ptr<CompiledProgram>> CompileProgram(
    const Script& script, const std::vector<AggregateSignature>& signatures) {
  SGL_ASSIGN_OR_RETURN(std::unique_ptr<CompiledProgram> prog,
                       Compiler(script, &signatures).Run());
  // Each aggregate declaration gets its own scan compilation (fresh
  // compiler: register spaces are independent). A declined scan is not an
  // error — the kAgg opcode probes that declaration through the
  // interpreter and Explain reports why.
  const size_t num_aggs = script.program.aggregates.size();
  prog->agg_scans.resize(num_aggs);
  prog->agg_notes.resize(num_aggs);
  for (size_t i = 0; i < num_aggs; ++i) {
    auto scan = Compiler(script).RunScan(static_cast<int32_t>(i));
    if (scan.ok()) {
      prog->agg_scans[i] = scan.MoveValue();
    } else {
      prog->agg_notes[i] = scan.status().message();
    }
  }
  // Likewise for actions: the perform flush's naive effect application.
  const size_t num_actions = script.program.actions.size();
  prog->action_scans.resize(num_actions);
  prog->action_notes.resize(num_actions);
  for (size_t i = 0; i < num_actions; ++i) {
    auto scan = Compiler(script).RunActionScan(static_cast<int32_t>(i));
    if (scan.ok()) {
      prog->action_scans[i] = scan.MoveValue();
    } else {
      prog->action_notes[i] = scan.status().message();
    }
  }
  // Standalone programs count executions against a private registry;
  // SimulationBuilder rebinds into the simulation's (all still zero).
  prog->own_metrics = std::make_unique<obs::MetricsRegistry>();
  prog->BindMetrics(prog->own_metrics.get(), "vm.", obs::kMetricNone);
  return prog;
}

}  // namespace vm
}  // namespace sgl
