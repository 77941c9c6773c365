#include "sgl/interpreter.h"

#include <algorithm>
#include <cmath>

#include "sgl/builtins.h"

namespace sgl {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Interpreter::Interpreter(const Script& script) : script_(&script) {
  posx_attr_ = script.schema.Find("posx");
  posy_attr_ = script.schema.Find("posy");
}

Status Interpreter::Tick(const EnvironmentTable& table, const TickRandom& rnd,
                         EffectBuffer* buffer) const {
  for (RowId r = 0; r < table.NumRows(); ++r) {
    SGL_RETURN_NOT_OK(RunUnit(table, r, rnd, buffer));
  }
  return Status::OK();
}

Status Interpreter::RunUnit(const EnvironmentTable& table, RowId u_row,
                            const TickRandom& rnd, EffectSink* buffer,
                            int32_t shard) const {
  if (script_->main_index < 0) {
    return Status::ExecutionError("script has no main function");
  }
  const FunctionDecl& main = script_->program.functions[script_->main_index];
  LocalStack locals;
  EvalCtx ctx;
  ctx.table = &table;
  ctx.u_row = u_row;
  ctx.u_name = &main.params[0];
  ctx.locals = &locals;
  ctx.rnd = &rnd;
  ctx.random_key = table.KeyAt(u_row);
  ctx.shard = shard;
  return ExecStmt(*main.body, &ctx, buffer);
}

Result<Value> Interpreter::EvalExpr(const Expr& e, EvalCtx* ctx) const {
  switch (e.kind) {
    case ExprKind::kNumber:
      return Value(e.number);
    case ExprKind::kVarRef: {
      const Value* v = ctx->locals != nullptr
                           ? ctx->locals->Find(e.name, e.var_slot)
                           : nullptr;
      if (v == nullptr) {
        return Status::ExecutionError("unbound name '", e.name, "' (line ",
                                      e.line, ")");
      }
      return *v;
    }
    case ExprKind::kAttrRef: {
      RowId row;
      if (ctx->u_name != nullptr && e.tuple_var == *ctx->u_name) {
        row = ctx->u_row;
      } else if (ctx->e_name != nullptr && e.tuple_var == *ctx->e_name) {
        row = ctx->e_row;
      } else {
        return Status::ExecutionError("unbound tuple '", e.tuple_var,
                                      "' (line ", e.line, ")");
      }
      return Value(ctx->table->Get(row, e.attr_id));
    }
    case ExprKind::kFieldAccess: {
      SGL_ASSIGN_OR_RETURN(Value base, EvalExpr(*e.args[0], ctx));
      if (base.is_vec()) {
        if (e.attr == "x") return Value(base.vec().x);
        if (e.attr == "y") return Value(base.vec().y);
        return Status::ExecutionError("vector has no field '", e.attr,
                                      "' (line ", e.line, ")");
      }
      if (base.is_row()) {
        int32_t idx = base.row().layout->Find(e.attr);
        if (idx < 0) {
          return Status::ExecutionError("aggregate result has no field '",
                                        e.attr, "' (line ", e.line, ")");
        }
        return Value(base.row().vals[idx]);
      }
      return Status::ExecutionError("field access '.", e.attr,
                                    "' on a scalar (line ", e.line, ")");
    }
    case ExprKind::kUnaryMinus: {
      SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.args[0], ctx));
      if (v.is_scalar()) return Value(-v.scalar());
      if (v.ConvertibleToVec()) return Value(v.AsVec() * -1.0);
      return Status::ExecutionError("cannot negate this value (line ", e.line,
                                    ")");
    }
    case ExprKind::kTuple: {
      SGL_ASSIGN_OR_RETURN(Value x, EvalExpr(*e.args[0], ctx));
      SGL_ASSIGN_OR_RETURN(Value y, EvalExpr(*e.args[1], ctx));
      if (!x.is_scalar() || !y.is_scalar()) {
        return Status::ExecutionError("tuple components must be scalars "
                                      "(line ",
                                      e.line, ")");
      }
      return Value(Vec2{x.scalar(), y.scalar()});
    }
    case ExprKind::kBinary: {
      SGL_ASSIGN_OR_RETURN(Value l, EvalExpr(*e.args[0], ctx));
      SGL_ASSIGN_OR_RETURN(Value r, EvalExpr(*e.args[1], ctx));
      if (l.is_scalar() && r.is_scalar()) {
        double a = l.scalar(), b = r.scalar();
        switch (e.op) {
          case BinaryOp::kAdd: return Value(a + b);
          case BinaryOp::kSub: return Value(a - b);
          case BinaryOp::kMul: return Value(a * b);
          case BinaryOp::kDiv:
            if (b == 0.0) {
              return Status::ExecutionError("division by zero (line ", e.line,
                                            ")");
            }
            return Value(a / b);
          case BinaryOp::kMod:
            if (b == 0.0) {
              return Status::ExecutionError("mod by zero (line ", e.line, ")");
            }
            return Value(std::fmod(a, b));
        }
      }
      // Vector arithmetic: vec±vec, vec*scalar, scalar*vec, vec/scalar.
      if (l.ConvertibleToVec() && r.ConvertibleToVec() &&
          (e.op == BinaryOp::kAdd || e.op == BinaryOp::kSub)) {
        Vec2 a = l.AsVec(), b = r.AsVec();
        return Value(e.op == BinaryOp::kAdd ? a + b : a - b);
      }
      if (e.op == BinaryOp::kMul) {
        if (l.ConvertibleToVec() && r.is_scalar()) {
          return Value(l.AsVec() * r.scalar());
        }
        if (l.is_scalar() && r.ConvertibleToVec()) {
          return Value(r.AsVec() * l.scalar());
        }
      }
      if (e.op == BinaryOp::kDiv && l.ConvertibleToVec() && r.is_scalar()) {
        if (r.scalar() == 0.0) {
          return Status::ExecutionError("division by zero (line ", e.line,
                                        ")");
        }
        return Value(l.AsVec() / r.scalar());
      }
      return Status::ExecutionError("type error in arithmetic (line ", e.line,
                                    ")");
    }
    case ExprKind::kCall: {
      if (e.is_aggregate) {
        std::vector<Value> args;
        args.reserve(e.args.size() - 1);
        for (size_t i = 1; i < e.args.size(); ++i) {
          SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.args[i], ctx));
          args.push_back(std::move(v));
        }
        if (provider_ != nullptr) {
          return provider_->Eval(e.call_id, args, ctx->u_row, *ctx->table,
                                 *ctx->rnd, ctx->shard);
        }
        return EvalAggregate(e.call_id, args, ctx->u_row, *ctx->table,
                             *ctx->rnd);
      }
      return EvalBuiltin(e, ctx);
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<Value> Interpreter::EvalBuiltin(const Expr& e, EvalCtx* ctx) const {
  BuiltinFn fn = static_cast<BuiltinFn>(e.call_id);
  std::vector<double> args;
  args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) {
    SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, ctx));
    if (!v.is_scalar()) {
      return Status::ExecutionError(BuiltinName(fn),
                                    "() arguments must be scalars (line ",
                                    e.line, ")");
    }
    args.push_back(v.scalar());
  }
  switch (fn) {
    case BuiltinFn::kAbs: return Value(std::fabs(args[0]));
    case BuiltinFn::kMin: return Value(std::min(args[0], args[1]));
    case BuiltinFn::kMax: return Value(std::max(args[0], args[1]));
    case BuiltinFn::kSqrt:
      if (args[0] < 0.0) {
        return Status::ExecutionError("sqrt of negative value (line ", e.line,
                                      ")");
      }
      return Value(std::sqrt(args[0]));
    case BuiltinFn::kFloor: return Value(std::floor(args[0]));
    case BuiltinFn::kCeil: return Value(std::ceil(args[0]));
    case BuiltinFn::kClamp:
      return Value(std::clamp(args[0], args[1], args[2]));
    case BuiltinFn::kRandom: {
      int64_t i = static_cast<int64_t>(args[0]);
      return Value(static_cast<double>(
          ctx->rnd->DrawBounded(ctx->random_key, i, kRandomRange)));
    }
  }
  return Status::Internal("unreachable builtin");
}

Result<bool> Interpreter::EvalCond(const Cond& c, EvalCtx* ctx) const {
  switch (c.kind) {
    case CondKind::kTrue:
      return true;
    case CondKind::kCompare: {
      SGL_ASSIGN_OR_RETURN(Value l, EvalExpr(*c.lhs, ctx));
      SGL_ASSIGN_OR_RETURN(Value r, EvalExpr(*c.rhs, ctx));
      if (!l.is_scalar() || !r.is_scalar()) {
        return Status::ExecutionError("comparisons require scalars (line ",
                                      c.line, ")");
      }
      double a = l.scalar(), b = r.scalar();
      switch (c.op) {
        case CompareOp::kEq: return a == b;
        case CompareOp::kNe: return a != b;
        case CompareOp::kLt: return a < b;
        case CompareOp::kLe: return a <= b;
        case CompareOp::kGt: return a > b;
        case CompareOp::kGe: return a >= b;
      }
      return Status::Internal("unreachable");
    }
    case CondKind::kNot: {
      SGL_ASSIGN_OR_RETURN(bool v, EvalCond(*c.left, ctx));
      return !v;
    }
    case CondKind::kAnd: {
      SGL_ASSIGN_OR_RETURN(bool l, EvalCond(*c.left, ctx));
      if (!l) return false;
      return EvalCond(*c.right, ctx);
    }
    case CondKind::kOr: {
      SGL_ASSIGN_OR_RETURN(bool l, EvalCond(*c.left, ctx));
      if (l) return true;
      return EvalCond(*c.right, ctx);
    }
  }
  return Status::Internal("unreachable cond kind");
}

Status Interpreter::ExecStmt(const Stmt& s, EvalCtx* ctx,
                             EffectSink* buffer) const {
  switch (s.kind) {
    case StmtKind::kLet: {
      SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*s.let_value, ctx));
      ctx->locals->Push(s.let_name, std::move(v));
      return Status::OK();
    }
    case StmtKind::kIf: {
      SGL_ASSIGN_OR_RETURN(bool cond, EvalCond(*s.cond, ctx));
      if (cond) return ExecStmt(*s.then_branch, ctx, buffer);
      if (s.else_branch != nullptr) {
        return ExecStmt(*s.else_branch, ctx, buffer);
      }
      return Status::OK();
    }
    case StmtKind::kBlock: {
      size_t mark = ctx->locals->Mark();
      for (const StmtPtr& child : s.body) {
        SGL_RETURN_NOT_OK(ExecStmt(*child, ctx, buffer));
      }
      ctx->locals->PopTo(mark);
      return Status::OK();
    }
    case StmtKind::kPerform: {
      std::vector<Value> args;
      args.reserve(s.args.size() - 1);
      for (size_t i = 1; i < s.args.size(); ++i) {
        SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*s.args[i], ctx));
        args.push_back(std::move(v));
      }
      if (s.target_action >= 0) {
        if (sink_ != nullptr) {
          SGL_ASSIGN_OR_RETURN(
              bool handled,
              sink_->Perform(s.target_action, args, ctx->u_row, *ctx->table,
                             *ctx->rnd, buffer, ctx->shard));
          if (handled) return Status::OK();
        }
        return ExecAction(s.target_action, args, ctx->u_row, *ctx->table,
                          *ctx->rnd, buffer);
      }
      // User function: fresh scope with its parameters bound; the callee's
      // tuple parameter aliases the same unit row.
      const FunctionDecl& fn =
          script_->program.functions[s.target_function];
      LocalStack locals;
      for (size_t i = 1; i < fn.params.size(); ++i) {
        locals.Push(fn.params[i], args[i - 1]);
      }
      EvalCtx inner;
      inner.table = ctx->table;
      inner.u_row = ctx->u_row;
      inner.u_name = &fn.params[0];
      inner.locals = &locals;
      inner.rnd = ctx->rnd;
      inner.random_key = ctx->random_key;
      inner.shard = ctx->shard;
      return ExecStmt(*fn.body, &inner, buffer);
    }
  }
  return Status::Internal("unreachable stmt kind");
}

Result<Value> Interpreter::EvalAggregate(int32_t agg_index,
                                         const std::vector<Value>& scalar_args,
                                         RowId u_row,
                                         const EnvironmentTable& table,
                                         const TickRandom& rnd) const {
  const AggregateDecl& decl = script_->program.aggregates[agg_index];
  LocalStack locals;
  for (size_t i = 1; i < decl.params.size(); ++i) {
    locals.Push(decl.params[i], scalar_args[i - 1]);
  }
  EvalCtx ctx;
  ctx.table = &table;
  ctx.u_row = u_row;
  ctx.u_name = &decl.params[0];
  ctx.e_name = &decl.row_var;
  ctx.locals = &locals;
  ctx.rnd = &rnd;

  const bool returns_row = decl.ReturnsRow();
  // Divisible accumulators per item: count plus term sums / sums of squares.
  int64_t count = 0;
  std::vector<double> sums(decl.items.size(), 0.0);
  std::vector<double> sumsq(decl.items.size(), 0.0);
  std::vector<double> mins(decl.items.size(), kInf);
  std::vector<double> maxs(decl.items.size(), -kInf);
  // Row-returning accumulator.
  bool found = false;
  double best_value = 0.0;
  double best_dist2 = 0.0;
  int64_t best_key = 0;
  RowId best_row = -1;

  for (RowId e_row = 0; e_row < table.NumRows(); ++e_row) {
    ctx.e_row = e_row;
    ctx.random_key = table.KeyAt(e_row);
    SGL_ASSIGN_OR_RETURN(bool match, EvalCond(*decl.where, &ctx));
    if (!match) continue;
    ++count;
    if (returns_row) {
      const AggItem& item = decl.items[0];
      double metric;
      if (item.func == AggFunc::kNearest) {
        double dx = table.Get(e_row, posx_attr_) - table.Get(u_row, posx_attr_);
        double dy = table.Get(e_row, posy_attr_) - table.Get(u_row, posy_attr_);
        metric = dx * dx + dy * dy;
      } else {
        SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.term, &ctx));
        if (!v.is_scalar()) {
          return Status::ExecutionError("argmin/argmax term must be scalar");
        }
        metric = item.func == AggFunc::kArgmax ? -v.scalar() : v.scalar();
      }
      int64_t key = table.KeyAt(e_row);
      if (!found || metric < best_value ||
          (metric == best_value && key < best_key)) {
        found = true;
        best_value = metric;
        best_key = key;
        best_row = e_row;
        if (item.func == AggFunc::kNearest) best_dist2 = metric;
      }
      continue;
    }
    for (size_t i = 0; i < decl.items.size(); ++i) {
      const AggItem& item = decl.items[i];
      if (item.func == AggFunc::kCount) continue;
      SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.term, &ctx));
      if (!v.is_scalar()) {
        return Status::ExecutionError("aggregate term must be scalar");
      }
      double t = v.scalar();
      sums[i] += t;
      sumsq[i] += t * t;
      mins[i] = std::min(mins[i], t);
      maxs[i] = std::max(maxs[i], t);
    }
  }

  if (returns_row) {
    auto row = std::make_shared<RowValue>();
    row->layout = script_->agg_layouts[agg_index];
    row->vals.assign(row->layout->fields.size(), 0.0);
    if (found) {
      row->vals[0] = 1.0;
      row->vals[1] = best_dist2;
      for (AttrId a = 0; a < table.schema().NumAttrs(); ++a) {
        row->vals[2 + a] = table.Get(best_row, a);
      }
    }
    return Value(std::shared_ptr<const RowValue>(std::move(row)));
  }

  auto item_value = [&](size_t i) -> double {
    const AggItem& item = decl.items[i];
    switch (item.func) {
      case AggFunc::kCount:
        return static_cast<double>(count);
      case AggFunc::kSum:
        return sums[i];
      case AggFunc::kAvg:
        return count == 0 ? 0.0 : sums[i] / static_cast<double>(count);
      case AggFunc::kMin:
        return count == 0 ? 0.0 : mins[i];
      case AggFunc::kMax:
        return count == 0 ? 0.0 : maxs[i];
      case AggFunc::kStddev: {
        if (count == 0) return 0.0;
        double n = static_cast<double>(count);
        double mean = sums[i] / n;
        double var = sumsq[i] / n - mean * mean;
        return var <= 0.0 ? 0.0 : std::sqrt(var);
      }
      default:
        return 0.0;
    }
  };

  if (decl.items.size() == 1) return Value(item_value(0));
  auto row = std::make_shared<RowValue>();
  row->layout = script_->agg_layouts[agg_index];
  row->vals.resize(decl.items.size());
  for (size_t i = 0; i < decl.items.size(); ++i) row->vals[i] = item_value(i);
  return Value(std::shared_ptr<const RowValue>(std::move(row)));
}

Result<Value> Interpreter::EvalExprIn(const Expr& e,
                                      const EnvironmentTable& table,
                                      const std::string* u_name, RowId u_row,
                                      const std::string* e_name, RowId e_row,
                                      LocalStack* locals,
                                      const TickRandom& rnd,
                                      int64_t random_key) const {
  EvalCtx ctx;
  ctx.table = &table;
  ctx.u_row = u_row;
  ctx.e_row = e_row;
  ctx.u_name = u_name;
  ctx.e_name = e_name;
  ctx.locals = locals;
  ctx.rnd = &rnd;
  ctx.random_key = random_key;
  return EvalExpr(e, &ctx);
}

Result<bool> Interpreter::EvalCondIn(const Cond& c,
                                     const EnvironmentTable& table,
                                     const std::string* u_name, RowId u_row,
                                     const std::string* e_name, RowId e_row,
                                     LocalStack* locals, const TickRandom& rnd,
                                     int64_t random_key) const {
  EvalCtx ctx;
  ctx.table = &table;
  ctx.u_row = u_row;
  ctx.e_row = e_row;
  ctx.u_name = u_name;
  ctx.e_name = e_name;
  ctx.locals = locals;
  ctx.rnd = &rnd;
  ctx.random_key = random_key;
  return EvalCond(c, &ctx);
}

Status Interpreter::ExecAction(int32_t action_index,
                               const std::vector<Value>& scalar_args,
                               RowId u_row, const EnvironmentTable& table,
                               const TickRandom& rnd,
                               EffectSink* buffer) const {
  const ActionDecl& decl = script_->program.actions[action_index];
  LocalStack locals;
  for (size_t i = 1; i < decl.params.size(); ++i) {
    locals.Push(decl.params[i], scalar_args[i - 1]);
  }
  for (const UpdateStmt& update : decl.updates) {
    EvalCtx ctx;
    ctx.table = &table;
    ctx.u_row = u_row;
    ctx.u_name = &decl.params[0];
    ctx.e_name = &update.row_var;
    ctx.locals = &locals;
    ctx.rnd = &rnd;
    for (RowId e_row = 0; e_row < table.NumRows(); ++e_row) {
      ctx.e_row = e_row;
      ctx.random_key = table.KeyAt(e_row);  // Figure 5: Random(e, i)
      SGL_ASSIGN_OR_RETURN(bool match, EvalCond(*update.where, &ctx));
      if (!match) continue;
      for (const SetItem& item : update.sets) {
        SGL_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.value, &ctx));
        if (!v.is_scalar()) {
          return Status::ExecutionError("effect values must be scalars");
        }
        if (item.op == SetOp::kSetPriority) {
          SGL_ASSIGN_OR_RETURN(Value p, EvalExpr(*item.priority, &ctx));
          if (!p.is_scalar()) {
            return Status::ExecutionError("effect priorities must be scalars");
          }
          buffer->AccumulateSet(e_row, item.attr_id, v.scalar(), p.scalar());
        } else {
          buffer->Accumulate(e_row, item.attr_id, v.scalar());
        }
      }
    }
  }
  return Status::OK();
}

// ------------------------------------------------------ batch aggregate seam

int32_t AggregateResultWidth(const Script& script, int32_t agg_index) {
  const AggregateDecl& decl = script.program.aggregates[agg_index];
  if (!decl.ReturnsRow() && decl.items.size() <= 1) return 1;
  return static_cast<int32_t>(script.agg_layouts[agg_index]->fields.size());
}

Value BoxAggregateResult(const Script& script, int32_t agg_index,
                         const double* vals) {
  const AggregateDecl& decl = script.program.aggregates[agg_index];
  if (!decl.ReturnsRow() && decl.items.size() <= 1) return Value(vals[0]);
  auto row = std::make_shared<RowValue>();
  row->layout = script.agg_layouts[agg_index];
  row->vals.assign(vals, vals + row->layout->fields.size());
  return Value(std::shared_ptr<const RowValue>(std::move(row)));
}

bool UnboxAggregateResult(const Value& v, int32_t nout, double* vals) {
  if (nout == 1) {
    if (!v.is_scalar()) return false;
    vals[0] = v.scalar();
    return true;
  }
  if (!v.is_row() || static_cast<int32_t>(v.row().vals.size()) != nout) {
    return false;
  }
  std::copy(v.row().vals.begin(), v.row().vals.end(), vals);
  return true;
}

Status EvalBatchByLane(
    const AggBatch& batch,
    const std::function<Result<Value>(const std::vector<Value>&, RowId)>&
        eval) {
  std::vector<Value> args;
  std::vector<double> vals(batch.nout);
  for (int32_t i = 0; i < batch.n; ++i) {
    if (batch.active[i] == 0) {
      for (int32_t k = 0; k < batch.nout; ++k) batch.out[k][i] = 0.0;
      continue;
    }
    args.clear();
    for (int32_t j = 0; j < batch.num_args; ++j) {
      args.push_back(Value(batch.args[j][i]));
    }
    SGL_ASSIGN_OR_RETURN(Value v, eval(args, batch.lo + i));
    if (!UnboxAggregateResult(v, batch.nout, vals.data())) {
      return Status::ExecutionError("aggregate result does not have the "
                                    "call site's shape");
    }
    for (int32_t k = 0; k < batch.nout; ++k) batch.out[k][i] = vals[k];
  }
  return Status::OK();
}

Status AggregateProvider::EvalBatch(const AggBatch& batch,
                                    const EnvironmentTable& table,
                                    const TickRandom& rnd, int32_t shard) {
  return EvalBatchByLane(
      batch, [&](const std::vector<Value>& args, RowId u_row) {
        return Eval(batch.agg_index, args, u_row, table, rnd, shard);
      });
}

}  // namespace sgl
