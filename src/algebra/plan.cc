#include "algebra/plan.h"

#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "opt/signature.h"
#include "util/string_util.h"

namespace sgl {

namespace {

// ------------------------------------------------------------ name usage

void CollectNames(const Expr& e, std::set<std::string>* out) {
  if (e.kind == ExprKind::kVarRef) out->insert(e.name);
  for (const ExprPtr& a : e.args) {
    if (a) CollectNames(*a, out);
  }
}

void CollectNamesCond(const Cond& c, std::set<std::string>* out) {
  if (c.lhs) CollectNames(*c.lhs, out);
  if (c.rhs) CollectNames(*c.rhs, out);
  if (c.left) CollectNamesCond(*c.left, out);
  if (c.right) CollectNamesCond(*c.right, out);
}

// -------------------------------------------------------- canonical keys

void ExprKey(const Expr& e, std::ostream& os) {
  switch (e.kind) {
    // Round-trip literal precision (opt/signature.h): distinct constants
    // must never render alike, or the common-aggregate factoring below
    // would merge operators with different semantics.
    case ExprKind::kNumber: PrintCanonicalNumber(e.number, os); break;
    case ExprKind::kVarRef: os << "v:" << e.name; break;
    case ExprKind::kAttrRef: os << "a:" << e.tuple_var << "." << e.attr; break;
    case ExprKind::kFieldAccess:
      ExprKey(*e.args[0], os);
      os << "." << e.attr;
      break;
    case ExprKind::kUnaryMinus:
      os << "-(";
      ExprKey(*e.args[0], os);
      os << ")";
      break;
    case ExprKind::kBinary:
      os << "(";
      ExprKey(*e.args[0], os);
      os << "op" << static_cast<int>(e.op);
      ExprKey(*e.args[1], os);
      os << ")";
      break;
    case ExprKind::kCall:
      os << e.name << "(";
      for (const ExprPtr& a : e.args) {
        if (a) ExprKey(*a, os);
        os << ",";
      }
      os << ")";
      break;
    case ExprKind::kTuple:
      os << "<";
      ExprKey(*e.args[0], os);
      os << ",";
      ExprKey(*e.args[1], os);
      os << ">";
      break;
  }
}

std::string ExprKeyOf(const Expr& e) {
  std::ostringstream os;
  ExprKey(e, os);
  return os.str();
}

void CondKey(const Cond& c, std::ostream& os) {
  switch (c.kind) {
    case CondKind::kTrue: os << "T"; break;
    case CondKind::kCompare:
      os << "[";
      ExprKey(*c.lhs, os);
      os << "c" << static_cast<int>(c.op);
      ExprKey(*c.rhs, os);
      os << "]";
      break;
    case CondKind::kNot:
      os << "!";
      CondKey(*c.left, os);
      break;
    case CondKind::kAnd:
    case CondKind::kOr:
      os << (c.kind == CondKind::kAnd ? "&" : "|");
      CondKey(*c.left, os);
      CondKey(*c.right, os);
      break;
  }
}

// ------------------------------------------------------------ rendering

std::string DescribeExprShort(const Expr& e) {
  std::string key = ExprKeyOf(e);
  if (key.size() > 48) key = key.substr(0, 45) + "...";
  return key;
}

std::string DescribeCondShort(const Cond& c) {
  std::ostringstream os;
  CondKey(c, os);
  std::string key = os.str();
  if (key.size() > 48) key = key.substr(0, 45) + "...";
  return key;
}

// ------------------------------------------------------------ translator

class Translator {
 public:
  explicit Translator(const Script& script) : script_(&script) {}

  Result<LogicalPlan> Run() {
    if (script_->main_index < 0) {
      return Status::PlanError("script has no main function");
    }
    PlanPtr scan = std::make_shared<PlanNode>();
    scan->op = PlanOp::kScan;
    const FunctionDecl& main = script_->program.functions[script_->main_index];
    SGL_RETURN_NOT_OK(WalkStmt(*main.body, scan, 0));
    LogicalPlan plan;
    plan.script = script_;
    plan.root = std::make_shared<PlanNode>();
    plan.root->op = PlanOp::kCombine;
    plan.root->children = std::move(leaves_);
    return plan;
  }

 private:
  static constexpr int32_t kMaxInlineDepth = 64;

  /// Walk one statement; `chain` is the operator pipeline built so far.
  /// Lets mutate the chain for subsequent statements of the same block;
  /// performs append an action leaf.
  Status WalkStmt(const Stmt& s, PlanPtr& chain, int32_t depth) {
    switch (s.kind) {
      case StmtKind::kLet: {
        PlanPtr node = std::make_shared<PlanNode>();
        node->op = (s.let_value->kind == ExprKind::kCall &&
                    s.let_value->is_aggregate)
                       ? PlanOp::kExtendAgg
                       : PlanOp::kExtend;
        node->input = chain;
        node->column = s.let_name;
        node->expr = s.let_value.get();
        chain = node;
        return Status::OK();
      }
      case StmtKind::kIf: {
        PlanPtr then_sel = std::make_shared<PlanNode>();
        then_sel->op = PlanOp::kSelect;
        then_sel->input = chain;
        then_sel->cond = s.cond.get();
        PlanPtr then_chain = then_sel;
        SGL_RETURN_NOT_OK(WalkStmt(*s.then_branch, then_chain, depth));
        if (s.else_branch != nullptr) {
          PlanPtr else_sel = std::make_shared<PlanNode>();
          else_sel->op = PlanOp::kSelect;
          else_sel->input = chain;
          else_sel->cond = s.cond.get();
          else_sel->negated = true;
          PlanPtr else_chain = else_sel;
          SGL_RETURN_NOT_OK(WalkStmt(*s.else_branch, else_chain, depth));
        }
        return Status::OK();
      }
      case StmtKind::kBlock: {
        PlanPtr local = chain;  // lets scope to the rest of the block
        for (const StmtPtr& child : s.body) {
          SGL_RETURN_NOT_OK(WalkStmt(*child, local, depth));
        }
        return Status::OK();
      }
      case StmtKind::kPerform: {
        if (s.target_action >= 0) {
          PlanPtr leaf = std::make_shared<PlanNode>();
          leaf->op = PlanOp::kAction;
          leaf->input = chain;
          leaf->action_index = s.target_action;
          for (size_t i = 1; i < s.args.size(); ++i) {
            leaf->action_args.push_back(s.args[i].get());
          }
          leaves_.push_back(std::move(leaf));
          return Status::OK();
        }
        // Inline the user function: its scalar parameters become π
        // extensions of this chain (no collisions: each inline extends
        // its own branch of the DAG).
        if (depth > kMaxInlineDepth) {
          return Status::PlanError("function inlining exceeded depth ",
                                   kMaxInlineDepth);
        }
        const FunctionDecl& fn =
            script_->program.functions[s.target_function];
        PlanPtr inlined = chain;
        for (size_t i = 1; i < fn.params.size(); ++i) {
          PlanPtr bind = std::make_shared<PlanNode>();
          bind->op = PlanOp::kExtend;
          bind->input = inlined;
          bind->column = fn.params[i];
          bind->expr = s.args[i].get();
          inlined = bind;
        }
        return WalkStmt(*fn.body, inlined, depth + 1);
      }
    }
    return Status::Internal("unreachable");
  }

  const Script* script_;
  std::vector<PlanPtr> leaves_;
};

// -------------------------------------------------------------- rewrites

/// Names read by a node itself (not its inputs).
std::set<std::string> NodeReads(const PlanNode& node) {
  std::set<std::string> names;
  switch (node.op) {
    case PlanOp::kSelect:
      CollectNamesCond(*node.cond, &names);
      break;
    case PlanOp::kExtend:
    case PlanOp::kExtendAgg:
      CollectNames(*node.expr, &names);
      break;
    case PlanOp::kAction:
      for (const Expr* a : node.action_args) CollectNames(*a, &names);
      break;
    default:
      break;
  }
  return names;
}

/// Structural key of a chain node (for prefix re-sharing after rewrites).
std::string NodeKey(const PlanNode& node, const std::string& input_key) {
  std::ostringstream os;
  os << input_key << "|";
  switch (node.op) {
    case PlanOp::kScan:
      os << "scan";
      break;
    case PlanOp::kSelect:
      os << (node.negated ? "sel!" : "sel");
      CondKey(*node.cond, os);
      break;
    case PlanOp::kExtend:
      os << "ext:" << node.column << "=";
      ExprKey(*node.expr, os);
      break;
    case PlanOp::kExtendAgg:
      os << "agg:" << node.column << "=";
      ExprKey(*node.expr, os);
      break;
    case PlanOp::kAction:
      os << "act" << node.action_index;
      for (const Expr* a : node.action_args) {
        ExprKey(*a, os);
        os << ",";
      }
      break;
    case PlanOp::kCombine:
      os << "combine";
      break;
  }
  return os.str();
}

}  // namespace

Result<LogicalPlan> TranslateScript(const Script& script) {
  return Translator(script).Run();
}

Result<LogicalPlan> OptimizePlan(const LogicalPlan& plan) {
  LogicalPlan out;
  out.script = plan.script;
  out.root = std::make_shared<PlanNode>();
  out.root->op = PlanOp::kCombine;

  // Hash-consing pool: chains rebuilt below re-share common prefixes.
  std::unordered_map<std::string, PlanPtr> pool;
  auto intern = [&](PlanPtr node, const std::string& key) -> PlanPtr {
    auto [it, inserted] = pool.emplace(key, node);
    return it->second;
  };

  for (const PlanPtr& leaf : plan.root->children) {
    // Gather the chain scan-first.
    std::vector<const PlanNode*> ops;
    for (const PlanNode* n = leaf.get(); n != nullptr; n = n->input.get()) {
      ops.push_back(n);
    }
    std::reverse(ops.begin(), ops.end());  // ops[0] is the Scan

    // Which extend columns does this branch ever read?
    std::set<std::string> needed;
    for (const PlanNode* n : ops) {
      if (n->op == PlanOp::kSelect || n->op == PlanOp::kAction) {
        std::set<std::string> reads = NodeReads(*n);
        needed.insert(reads.begin(), reads.end());
      }
    }
    // Transitively: an extend whose column is needed makes its own reads
    // needed (extends may reference earlier lets).
    bool changed = true;
    while (changed) {
      changed = false;
      for (const PlanNode* n : ops) {
        if ((n->op == PlanOp::kExtend || n->op == PlanOp::kExtendAgg) &&
            needed.count(n->column) > 0) {
          for (const std::string& r : NodeReads(*n)) {
            changed |= needed.insert(r).second;
          }
        }
      }
    }

    // Rebuild lazily: pending extends are emitted just before the first
    // operator that reads their column (Figure 6(a) -> 6(b): aggregates
    // sink below the selections that gate them); unused extends vanish.
    std::vector<const PlanNode*> pending;
    PlanPtr chain;
    std::string key;
    auto emit = [&](const PlanNode* op) {
      PlanPtr node = std::make_shared<PlanNode>(*op);
      node->input = chain;
      node->children.clear();
      key = NodeKey(*node, key);
      chain = intern(node, key);
    };
    std::function<void(const std::string&)> flush_for =
        [&](const std::string& name) {
          for (size_t i = 0; i < pending.size(); ++i) {
            const PlanNode* p = pending[i];
            if (p == nullptr || p->column != name) continue;
            pending[i] = nullptr;
            for (const std::string& dep : NodeReads(*p)) flush_for(dep);
            emit(p);
            return;
          }
        };
    for (const PlanNode* op : ops) {
      switch (op->op) {
        case PlanOp::kScan:
          emit(op);
          break;
        case PlanOp::kExtend:
        case PlanOp::kExtendAgg:
          if (needed.count(op->column) > 0) pending.push_back(op);
          break;
        case PlanOp::kSelect:
        case PlanOp::kAction:
          for (const std::string& r : NodeReads(*op)) flush_for(r);
          emit(op);
          break;
        case PlanOp::kCombine:
          break;
      }
    }
    out.root->children.push_back(chain);
  }

  // Common-aggregate factoring: identical aggregate expressions share a
  // signature id (the physical layer's families are coarser still: one
  // per distinct build, shared by every signature that needs it).
  // Identity is *structural*: the called declaration contributes its
  // canonical fingerprint (opt/signature.h), not its name, so calls to
  // two declarations that differ only in spelling — aggregate or tuple-
  // variable names — factor into one shared signature, mirroring the
  // dedup rule of the cross-script sharing layer.
  std::map<std::string, int32_t> signature_of;
  std::set<const PlanNode*> visited;
  std::function<void(const PlanPtr&)> factor = [&](const PlanPtr& node) {
    if (node == nullptr || !visited.insert(node.get()).second) return;
    if (node->op == PlanOp::kExtendAgg) {
      std::string key;
      const Expr& call = *node->expr;
      if (call.is_aggregate && call.call_id >= 0) {
        std::ostringstream os;
        os << CanonicalAggregateFingerprint(*out.script, call.call_id)
           << "@(";
        for (size_t a = 1; a < call.args.size(); ++a) {
          if (call.args[a]) ExprKey(*call.args[a], os);
          os << ",";
        }
        os << ")";
        key = os.str();
      } else {
        key = ExprKeyOf(call);
      }
      auto [it, inserted] = signature_of.emplace(
          key, static_cast<int32_t>(signature_of.size()));
      node->shared_signature = it->second;
    }
    factor(node->input);
    for (const PlanPtr& c : node->children) factor(c);
  };
  factor(out.root);

  // Total-action marking: act⊕(R) ⊕ R = act⊕(R) when every update of the
  // action touches exactly the performing unit (e.key = u.key), as with
  // MoveInDirection in Example 5.1.
  const Script& script = *out.script;
  for (const PlanPtr& leaf : out.root->children) {
    if (leaf->op != PlanOp::kAction) continue;
    const ActionDecl& decl = script.program.actions[leaf->action_index];
    bool total = true;
    for (const UpdateStmt& update : decl.updates) {
      std::vector<const Cond*> conjuncts;
      FlattenWhere(*update.where, &conjuncts);
      bool self_keyed = false;
      for (const Cond* c : conjuncts) {
        if (c->kind != CondKind::kCompare || c->op != CompareOp::kEq) continue;
        AttrId l, r;
        if (IsPlainAttrRef(*c->lhs, update.row_var, &l) && l == kKeyAttrId &&
            IsPlainAttrRef(*c->rhs, decl.params[0], &r) && r == kKeyAttrId) {
          self_keyed = true;
        }
        if (IsPlainAttrRef(*c->rhs, update.row_var, &l) && l == kKeyAttrId &&
            IsPlainAttrRef(*c->lhs, decl.params[0], &r) && r == kKeyAttrId) {
          self_keyed = true;
        }
      }
      if (!self_keyed) total = false;
    }
    leaf->action_total = total;
  }
  return out;
}

int32_t LogicalPlan::NumNodes() const {
  std::set<const PlanNode*> visited;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node == nullptr || !visited.insert(node.get()).second) return;
    walk(node->input);
    for (const PlanPtr& c : node->children) walk(c);
  };
  walk(root);
  return static_cast<int32_t>(visited.size());
}

int32_t LogicalPlan::NumAggregateNodes() const {
  std::set<const PlanNode*> visited;
  int32_t count = 0;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node == nullptr || !visited.insert(node.get()).second) return;
    if (node->op == PlanOp::kExtendAgg) ++count;
    walk(node->input);
    for (const PlanPtr& c : node->children) walk(c);
  };
  walk(root);
  return count;
}

int32_t LogicalPlan::NumSharedSignatures() const {
  std::set<const PlanNode*> visited;
  std::set<int32_t> sigs;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node == nullptr || !visited.insert(node.get()).second) return;
    if (node->op == PlanOp::kExtendAgg && node->shared_signature >= 0) {
      sigs.insert(node->shared_signature);
    }
    walk(node->input);
    for (const PlanPtr& c : node->children) walk(c);
  };
  walk(root);
  return static_cast<int32_t>(sigs.size());
}

std::string LogicalPlan::ToString() const { return ToString(nullptr); }

std::string LogicalPlan::ToString(const PlanAnnotator& annotate) const {
  std::ostringstream os;
  os << "⊕  (combine; result ⊕ E applies the tick)\n";
  std::map<const PlanNode*, int32_t> seen;
  for (size_t i = 0; i < root->children.size(); ++i) {
    os << "├─ branch " << i << ":\n";
    // Print each chain leaf-first with indentation; shared prefixes are
    // labelled the first time and referenced afterwards.
    std::vector<const PlanNode*> ops;
    for (const PlanNode* n = root->children[i].get(); n != nullptr;
         n = n->input.get()) {
      ops.push_back(n);
    }
    int depth = 1;
    for (const PlanNode* n : ops) {
      os << Repeat("│  ", 1) << Repeat("  ", depth++);
      auto it = seen.find(n);
      if (it != seen.end()) {
        os << "(shared prefix #" << it->second << ")\n";
        break;
      }
      seen.emplace(n, static_cast<int32_t>(seen.size()));
      switch (n->op) {
        case PlanOp::kScan:
          os << "Scan(E)";
          break;
        case PlanOp::kSelect:
          os << (n->negated ? "σ¬" : "σ") << "("
             << DescribeCondShort(*n->cond) << ")";
          break;
        case PlanOp::kExtend:
          os << "π∗," << DescribeExprShort(*n->expr) << " as " << n->column;
          break;
        case PlanOp::kExtendAgg:
          os << "π∗,agg[" << DescribeExprShort(*n->expr) << "] as "
             << n->column;
          if (n->shared_signature >= 0) {
            os << "   {sig #" << n->shared_signature << "}";
          }
          break;
        case PlanOp::kAction:
          os << "act⊕ "
             << script->program.actions[n->action_index].name;
          if (n->action_total) os << "   [total: ⊕E elided, rule (10)]";
          break;
        case PlanOp::kCombine:
          os << "⊕";
          break;
      }
      if (annotate) {
        std::string note = annotate(*n);
        if (!note.empty()) os << "   {physical: " << note << "}";
      }
      os << "  #" << seen[n] << "\n";
    }
  }
  return os.str();
}

}  // namespace sgl
