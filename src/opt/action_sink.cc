#include "opt/action_sink.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <sstream>

#include "geom/minmax_tree.h"
#include "geom/range_tree.h"

namespace sgl {

namespace {

/// Fold an expression containing only numbers and arithmetic (constants
/// were already substituted by the analyzer). Returns false otherwise.
bool FoldPure(const Expr& e, double* out) {
  switch (e.kind) {
    case ExprKind::kNumber:
      *out = e.number;
      return true;
    case ExprKind::kUnaryMinus: {
      double v;
      if (!FoldPure(*e.args[0], &v)) return false;
      *out = -v;
      return true;
    }
    case ExprKind::kBinary: {
      double l, r;
      if (!FoldPure(*e.args[0], &l) || !FoldPure(*e.args[1], &r)) return false;
      switch (e.op) {
        case BinaryOp::kAdd: *out = l + r; return true;
        case BinaryOp::kSub: *out = l - r; return true;
        case BinaryOp::kMul: *out = l * r; return true;
        case BinaryOp::kDiv:
          if (r == 0.0) return false;
          *out = l / r;
          return true;
        case BinaryOp::kMod:
          if (r == 0.0) return false;
          *out = std::fmod(l, r);
          return true;
      }
      return false;
    }
    default:
      return false;
  }
}

/// Match `u.<pos_attr> + c` / `u.<pos_attr> - c` / plain `u.<pos_attr>`;
/// returns the signed constant offset c.
bool MatchCenterOffset(const Expr& e, const std::string& u_name, AttrId pos,
                       double* offset) {
  AttrId attr;
  if (IsPlainAttrRef(e, u_name, &attr)) {
    if (attr != pos) return false;
    *offset = 0.0;
    return true;
  }
  if (e.kind != ExprKind::kBinary ||
      (e.op != BinaryOp::kAdd && e.op != BinaryOp::kSub)) {
    return false;
  }
  if (!IsPlainAttrRef(*e.args[0], u_name, &attr) || attr != pos) return false;
  double c;
  if (!FoldPure(*e.args[1], &c)) return false;
  *offset = e.op == BinaryOp::kAdd ? c : -c;
  return true;
}

}  // namespace

Result<std::unique_ptr<IndexedActionSink>> IndexedActionSink::Create(
    const Script& script, const Interpreter& interp) {
  std::unique_ptr<IndexedActionSink> sink(
      new IndexedActionSink(script, interp));
  sink->posx_attr_ = script.schema.Find("posx");
  sink->posy_attr_ = script.schema.Find("posy");
  const int32_t num_actions =
      static_cast<int32_t>(script.program.actions.size());
  sink->plans_.resize(num_actions);
  sink->pending_.resize(num_actions);
  for (int32_t a = 0; a < num_actions; ++a) {
    SGL_RETURN_NOT_OK(sink->ClassifyAction(a));
    sink->pending_[a].resize(script.program.actions[a].updates.size());
  }
  sink->set_num_shards(1);
  return sink;
}

void IndexedActionSink::set_num_shards(int32_t num_shards) {
  PendingBatches shape(script_->program.actions.size());
  for (size_t a = 0; a < shape.size(); ++a) {
    shape[a].resize(script_->program.actions[a].updates.size());
  }
  pending_shards_.assign(static_cast<size_t>(std::max(1, num_shards)), shape);
}

void IndexedActionSink::MergePendingShards() {
  for (PendingBatches& shard : pending_shards_) {
    for (size_t a = 0; a < shard.size(); ++a) {
      for (size_t s = 0; s < shard[a].size(); ++s) {
        std::vector<Pending>& src = shard[a][s];
        if (src.empty()) continue;
        std::vector<Pending>& dst = pending_[a][s];
        dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                   std::make_move_iterator(src.end()));
        src.clear();
      }
    }
  }
}

Status IndexedActionSink::ClassifyAction(int32_t action_index) {
  const ActionDecl& decl = script_->program.actions[action_index];
  const std::string& u = decl.params[0];
  const std::vector<std::string> params(decl.params.begin() + 1,
                                        decl.params.end());
  ActionPlans& plans = plans_[action_index];
  plans.all_handled = true;

  for (const UpdateStmt& update : decl.updates) {
    const std::string& e = update.row_var;
    UpdatePlan plan;
    auto fallback = [&](std::string reason) {
      plan.kind = UpdateKind::kFallback;
      plan.reason = std::move(reason);
      plans.all_handled = false;
    };

    std::vector<const Cond*> conjuncts;
    FlattenWhere(*update.where, &conjuncts);

    // Direct-key detection: a conjunct `e.key = expr(u, params)`.
    for (const Cond* c : conjuncts) {
      if (c->kind != CondKind::kCompare || c->op != CompareOp::kEq) continue;
      AttrId attr;
      if (IsPlainAttrRef(*c->lhs, e, &attr) && attr == kKeyAttrId &&
          !AnalyzeExprUse(*c->rhs, u, e, params).uses_e) {
        plan.kind = UpdateKind::kDirectKey;
        plan.key_expr = c->rhs.get();
      } else if (IsPlainAttrRef(*c->rhs, e, &attr) && attr == kKeyAttrId &&
                 !AnalyzeExprUse(*c->lhs, u, e, params).uses_e) {
        plan.kind = UpdateKind::kDirectKey;
        plan.key_expr = c->lhs.get();
      }
      if (plan.kind == UpdateKind::kDirectKey) {
        for (const Cond* other : conjuncts) {
          if (other != c) plan.residual.push_back(other);
        }
        break;
      }
    }

    if (plan.kind == UpdateKind::kDirectKey) {
      plans.updates.push_back(std::move(plan));
      continue;
    }

    // Area-of-effect detection: a closed constant-extent box around the
    // performer's position, optional partition equalities, e-only and
    // performer-only residuals; effect values independent of e.
    bool ok = true;
    std::string why;
    bool has_xlo = false, has_xhi = false, has_ylo = false, has_yhi = false;
    for (const Cond* c : conjuncts) {
      SideUse use = AnalyzeCondUse(*c, u, e, params);
      if (use.uses_random) {
        ok = false;
        why = "random() in where clause";
        break;
      }
      if (!use.uses_e) {
        plan.performer_filters.push_back(c);
        continue;
      }
      if (!use.uses_u) {
        plan.unit_filters.push_back(c);
        continue;
      }
      if (c->kind != CondKind::kCompare) {
        ok = false;
        why = "non-comparison mixes u and e";
        break;
      }
      AttrId attr = Schema::kInvalidAttr;
      const Expr* other = nullptr;
      CompareOp op = c->op;
      if (IsPlainAttrRef(*c->lhs, e, &attr) &&
          !AnalyzeExprUse(*c->rhs, u, e, params).uses_e) {
        other = c->rhs.get();
      } else if (IsPlainAttrRef(*c->rhs, e, &attr) &&
                 !AnalyzeExprUse(*c->lhs, u, e, params).uses_e) {
        other = c->lhs.get();
        switch (op) {
          case CompareOp::kLt: op = CompareOp::kGt; break;
          case CompareOp::kLe: op = CompareOp::kGe; break;
          case CompareOp::kGt: op = CompareOp::kLt; break;
          case CompareOp::kGe: op = CompareOp::kLe; break;
          default: break;
        }
      } else {
        ok = false;
        why = "conjunct is not e.attr cmp expr(u)";
        break;
      }
      if ((op == CompareOp::kEq || op == CompareOp::kNe) &&
          attr != posx_attr_ && attr != posy_attr_) {
        // Equality selects allies (healing auras); inequality selects
        // enemies (blast damage). Both are categorical partitions.
        plan.partitions.push_back(
            PartitionDim{attr, other, op == CompareOp::kNe});
        continue;
      }
      if ((attr == posx_attr_ || attr == posy_attr_) &&
          (op == CompareOp::kLe || op == CompareOp::kGe)) {
        AttrId pos = attr;
        double off;
        if (!MatchCenterOffset(*other, u, pos, &off)) {
          ok = false;
          why = "bound is not performer position plus a constant";
          break;
        }
        if (op == CompareOp::kGe) {
          // e.pos >= u.pos + off  =>  lo offset = -off.
          if (pos == posx_attr_) {
            plan.lo_x_off = -off;
            has_xlo = true;
          } else {
            plan.lo_y_off = -off;
            has_ylo = true;
          }
        } else {
          if (pos == posx_attr_) {
            plan.hi_x_off = off;
            has_xhi = true;
          } else {
            plan.hi_y_off = off;
            has_yhi = true;
          }
        }
        continue;
      }
      ok = false;
      why = "unsupported mixed conjunct (strict bound or inequality)";
      break;
    }
    if (ok && !(has_xlo && has_xhi && has_ylo && has_yhi)) {
      ok = false;
      why = "area of effect is not a closed box around the performer";
    }
    if (ok) {
      for (const SetItem& item : update.sets) {
        if (item.op == SetOp::kSetPriority) {
          ok = false;
          why = "set-priority effects are not batched";
          break;
        }
        SideUse use = AnalyzeExprUse(*item.value, u, e, params);
        if (use.uses_e || use.uses_random) {
          ok = false;
          why = "effect value depends on the affected unit";
          break;
        }
      }
    }
    if (ok) {
      plan.kind = UpdateKind::kAOE;
      plans.updates.push_back(std::move(plan));
    } else {
      fallback(why);
      plans.updates.push_back(std::move(plan));
    }
  }
  return Status::OK();
}

Result<bool> IndexedActionSink::Perform(int32_t action_index,
                                        const std::vector<Value>& scalar_args,
                                        RowId u_row,
                                        const EnvironmentTable& table,
                                        const TickRandom& rnd,
                                        EffectSink* buffer, int32_t shard) {
  const ActionDecl& decl = script_->program.actions[action_index];
  const ActionPlans& plans = plans_[action_index];
  if (!plans.all_handled) return false;  // interpreter scans instead

  const std::string* u_name = &decl.params[0];
  const int64_t u_key = table.KeyAt(u_row);
  LocalStack params;
  for (size_t i = 1; i < decl.params.size(); ++i) {
    params.Push(decl.params[i], scalar_args[i - 1]);
  }

  for (size_t s = 0; s < decl.updates.size(); ++s) {
    const UpdateStmt& update = decl.updates[s];
    const UpdatePlan& plan = plans.updates[s];
    if (plan.kind == UpdateKind::kDirectKey) {
      SGL_RETURN_NOT_OK(ApplyDirectKey(plan, update, decl, scalar_args, u_row,
                                       table, rnd, buffer));
      continue;
    }
    // AOE: check performer-only filters, then record the deferred effect.
    bool pass = true;
    for (const Cond* c : plan.performer_filters) {
      SGL_ASSIGN_OR_RETURN(
          bool v, interp_->EvalCondIn(*c, table, u_name, u_row, nullptr, -1,
                                      &params, rnd, u_key));
      if (!v) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    Pending pending;
    pending.cx = table.Get(u_row, posx_attr_);
    pending.cy = table.Get(u_row, posy_attr_);
    for (const PartitionDim& p : plan.partitions) {
      SGL_ASSIGN_OR_RETURN(
          Value v, interp_->EvalExprIn(*p.value, table, u_name, u_row,
                                       nullptr, -1, &params, rnd, u_key));
      if (!v.is_scalar()) {
        return Status::ExecutionError("partition value must be scalar");
      }
      pending.part_values.push_back(v.scalar());
    }
    for (const SetItem& item : update.sets) {
      SGL_ASSIGN_OR_RETURN(
          Value v, interp_->EvalExprIn(*item.value, table, u_name, u_row,
                                       nullptr, -1, &params, rnd, u_key));
      if (!v.is_scalar()) {
        return Status::ExecutionError("effect value must be scalar");
      }
      pending.set_values.push_back(v.scalar());
    }
    // An out-of-range shard means the caller skipped set_num_shards —
    // fail deterministically rather than silently race on shard 0.
    if (shard < 0 || shard >= static_cast<int32_t>(pending_shards_.size())) {
      return Status::Internal("deferred perform from shard ", shard,
                              " but only ", pending_shards_.size(),
                              " shards configured (set_num_shards)");
    }
    pending_shards_[shard][action_index][s].push_back(std::move(pending));
  }
  return true;
}

Status IndexedActionSink::ApplyDirectKey(
    const UpdatePlan& plan, const UpdateStmt& update, const ActionDecl& decl,
    const std::vector<Value>& scalar_args, RowId u_row,
    const EnvironmentTable& table, const TickRandom& rnd,
    EffectSink* buffer) const {
  const std::string* u_name = &decl.params[0];
  const std::string* e_name = &update.row_var;
  const int64_t u_key = table.KeyAt(u_row);
  LocalStack params;
  for (size_t i = 1; i < decl.params.size(); ++i) {
    params.Push(decl.params[i], scalar_args[i - 1]);
  }
  SGL_ASSIGN_OR_RETURN(
      Value key_val, interp_->EvalExprIn(*plan.key_expr, table, u_name, u_row,
                                         nullptr, -1, &params, rnd, u_key));
  if (!key_val.is_scalar()) {
    return Status::ExecutionError("key expression must be scalar");
  }
  RowId e_row = table.RowOf(static_cast<int64_t>(key_val.scalar()));
  if (e_row < 0) return Status::OK();  // target died in an earlier tick
  const int64_t e_key = table.KeyAt(e_row);
  for (const Cond* c : plan.residual) {
    SGL_ASSIGN_OR_RETURN(
        bool pass, interp_->EvalCondIn(*c, table, u_name, u_row, e_name,
                                       e_row, &params, rnd, e_key));
    if (!pass) return Status::OK();
  }
  for (const SetItem& item : update.sets) {
    SGL_ASSIGN_OR_RETURN(
        Value v, interp_->EvalExprIn(*item.value, table, u_name, u_row,
                                     e_name, e_row, &params, rnd, e_key));
    if (!v.is_scalar()) {
      return Status::ExecutionError("effect value must be scalar");
    }
    if (item.op == SetOp::kSetPriority) {
      SGL_ASSIGN_OR_RETURN(
          Value p, interp_->EvalExprIn(*item.priority, table, u_name, u_row,
                                       e_name, e_row, &params, rnd, e_key));
      if (!p.is_scalar()) {
        return Status::ExecutionError("effect priority must be scalar");
      }
      buffer->AccumulateSet(e_row, item.attr_id, v.scalar(), p.scalar());
    } else {
      buffer->Accumulate(e_row, item.attr_id, v.scalar());
    }
  }
  return Status::OK();
}

Status IndexedActionSink::FlushDeferred(const EnvironmentTable& table,
                                        const TickRandom& rnd,
                                        EffectBuffer* buffer) {
  MergePendingShards();
  const int32_t n = table.NumRows();
  for (size_t a = 0; a < pending_.size(); ++a) {
    const ActionDecl& decl = script_->program.actions[a];
    for (size_t s = 0; s < pending_[a].size(); ++s) {
      std::vector<Pending>& batch = pending_[a][s];
      if (batch.empty()) continue;
      const UpdateStmt& update = decl.updates[s];
      const UpdatePlan& plan = plans_[a].updates[s];
      const std::string* e_name = &update.row_var;

      // Group deferred effects by their partition values.
      std::map<std::vector<double>, std::vector<int32_t>> groups;
      for (size_t i = 0; i < batch.size(); ++i) {
        groups[batch[i].part_values].push_back(static_cast<int32_t>(i));
      }

      for (const auto& [part_values, members] : groups) {
        // One point per deferred effect; one index per (group, set-item
        // combine kind): the Section 5.4 construction.
        std::vector<PointRef> centers;
        centers.reserve(members.size());
        std::vector<int64_t> center_keys(batch.size(), 0);
        for (int32_t i : members) {
          centers.push_back(PointRef{batch[i].cx, batch[i].cy, i});
          center_keys[i] = i;
        }
        // Stackable items share one multi-term divisible tree.
        std::vector<int32_t> sum_items;
        std::vector<std::vector<double>> sum_terms;
        for (size_t it = 0; it < update.sets.size(); ++it) {
          if (update.sets[it].op == SetOp::kAdd) {
            sum_items.push_back(static_cast<int32_t>(it));
            std::vector<double> col(batch.size(), 0.0);
            for (int32_t i : members) col[i] = batch[i].set_values[it];
            sum_terms.push_back(std::move(col));
          }
        }
        std::unique_ptr<LayeredRangeTree2D> sum_tree;
        if (!sum_items.empty()) {
          sum_tree = std::make_unique<LayeredRangeTree2D>(centers, sum_terms);
        }
        std::vector<std::pair<int32_t, MinMaxRangeTree2D>> extremum_trees;
        for (size_t it = 0; it < update.sets.size(); ++it) {
          if (update.sets[it].op != SetOp::kMaxOf &&
              update.sets[it].op != SetOp::kMinOf) {
            continue;
          }
          std::vector<double> col(batch.size(), 0.0);
          for (int32_t i : members) col[i] = batch[i].set_values[it];
          auto mode = update.sets[it].op == SetOp::kMaxOf
                          ? MinMaxRangeTree2D::Mode::kMax
                          : MinMaxRangeTree2D::Mode::kMin;
          extremum_trees.emplace_back(
              static_cast<int32_t>(it),
              MinMaxRangeTree2D(centers, col, center_keys, mode));
        }

        // Probe once per unit: a center at c affects the unit at p iff
        // p ∈ box(c) iff c ∈ box'(p) with the offsets flipped.
        LocalStack no_params;
        for (RowId r = 0; r < n; ++r) {
          // Partition check: the affected unit's attribute value must
          // match (or, for negated dims, differ from) the group's
          // evaluated partition expression.
          bool part_ok = true;
          for (size_t pi = 0; pi < plan.partitions.size(); ++pi) {
            bool equal =
                table.Get(r, plan.partitions[pi].attr) == part_values[pi];
            if (plan.partitions[pi].negated ? equal : !equal) {
              part_ok = false;
              break;
            }
          }
          if (!part_ok) continue;
          bool filter_ok = true;
          for (const Cond* c : plan.unit_filters) {
            SGL_ASSIGN_OR_RETURN(
                bool v, interp_->EvalCondIn(*c, table, nullptr, -1, e_name, r,
                                            &no_params, rnd, table.KeyAt(r)));
            if (!v) {
              filter_ok = false;
              break;
            }
          }
          if (!filter_ok) continue;
          const double px = table.Get(r, posx_attr_);
          const double py = table.Get(r, posy_attr_);
          const Rect probe{px - plan.hi_x_off, px + plan.lo_x_off,
                           py - plan.hi_y_off, py + plan.lo_y_off};
          if (sum_tree != nullptr) {
            AggResult res = sum_tree->Aggregate(probe);
            if (res.count > 0) {
              for (size_t t = 0; t < sum_items.size(); ++t) {
                buffer->Accumulate(r, update.sets[sum_items[t]].attr_id,
                                   res.sums[t]);
              }
            }
          }
          for (const auto& [it, tree] : extremum_trees) {
            Extremum best = tree.Query(probe);
            if (best.valid()) {
              buffer->Accumulate(r, update.sets[it].attr_id, best.value);
            }
          }
        }
      }
      batch.clear();
    }
  }
  return Status::OK();
}

std::string IndexedActionSink::DescribePlan() const {
  std::ostringstream os;
  os << "Action plan (" << plans_.size() << " actions):\n";
  for (size_t a = 0; a < plans_.size(); ++a) {
    const ActionDecl& decl = script_->program.actions[a];
    os << "  " << decl.name << ":";
    for (size_t s = 0; s < plans_[a].updates.size(); ++s) {
      const UpdatePlan& plan = plans_[a].updates[s];
      os << " update#" << s << "=";
      switch (plan.kind) {
        case UpdateKind::kDirectKey: os << "direct-key"; break;
        case UpdateKind::kAOE: os << "area-of-effect"; break;
        case UpdateKind::kFallback:
          os << "scan(" << plan.reason << ")";
          break;
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sgl
