#include "opt/signature.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>


namespace sgl {

void PrintCanonicalNumber(double v, std::ostream& os) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kDivisibleRangeTree: return "divisible-range-tree";
    case IndexKind::kPartitionTotals: return "partition-totals";
    case IndexKind::kMinMaxTree: return "minmax-range-tree";
    case IndexKind::kKdNearest: return "kd-nearest";
    case IndexKind::kNaive: return "naive-scan";
  }
  return "?";
}

void CollectUses(const Expr& e, const std::string& u_name,
                 const std::string& e_name,
                 const std::vector<std::string>& params, SideUse* out) {
  if (e.kind == ExprKind::kAttrRef) {
    if (e.tuple_var == u_name) out->uses_u = true;
    if (e.tuple_var == e_name) out->uses_e = true;
  }
  if (e.kind == ExprKind::kVarRef) {
    // Scalar parameters are bound per probing unit: probe-side.
    for (const std::string& p : params) {
      if (e.name == p) out->uses_u = true;
    }
  }
  if (e.kind == ExprKind::kCall && !e.is_aggregate) {
    // random() is the only builtin whose value depends on its context row.
    std::string lower = e.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == "random") out->uses_random = true;
  }
  for (const ExprPtr& a : e.args) {
    if (a) CollectUses(*a, u_name, e_name, params, out);
  }
}

void CollectUsesCond(const Cond& c, const std::string& u_name,
                     const std::string& e_name,
                     const std::vector<std::string>& params, SideUse* out) {
  if (c.lhs) CollectUses(*c.lhs, u_name, e_name, params, out);
  if (c.rhs) CollectUses(*c.rhs, u_name, e_name, params, out);
  if (c.left) CollectUsesCond(*c.left, u_name, e_name, params, out);
  if (c.right) CollectUsesCond(*c.right, u_name, e_name, params, out);
}

SideUse AnalyzeExprUse(const Expr& e, const std::string& u_name,
                       const std::string& e_name,
                       const std::vector<std::string>& params) {
  SideUse use;
  CollectUses(e, u_name, e_name, params, &use);
  return use;
}

SideUse AnalyzeCondUse(const Cond& c, const std::string& u_name,
                       const std::string& e_name,
                       const std::vector<std::string>& params) {
  SideUse use;
  CollectUsesCond(c, u_name, e_name, params, &use);
  return use;
}

void FlattenWhere(const Cond& c, std::vector<const Cond*>* out) {
  switch (c.kind) {
    case CondKind::kTrue:
      return;
    case CondKind::kAnd:
      FlattenWhere(*c.left, out);
      FlattenWhere(*c.right, out);
      return;
    default:
      out->push_back(&c);  // kept whole; classified by side usage only
      return;
  }
}

bool IsPlainAttrRef(const Expr& e, const std::string& alias, AttrId* attr) {
  if (e.kind != ExprKind::kAttrRef || e.tuple_var != alias) return false;
  *attr = e.attr_id;
  return true;
}

namespace {

/// Canonical variable renaming for fingerprints: tuple variables print as
/// @u / @e and scalar parameters as @p<i>, so structural identity is
/// independent of the names a declaration happened to choose. All fields
/// may be null/empty (legacy callers print names verbatim).
struct NameCanon {
  const std::string* u = nullptr;
  const std::string* e = nullptr;
  const std::vector<std::string>* params = nullptr;

  void PrintTupleVar(const std::string& name, std::ostream& os) const {
    if (u != nullptr && name == *u) {
      os << "@u";
    } else if (e != nullptr && name == *e) {
      os << "@e";
    } else {
      os << name;
    }
  }
  void PrintVar(const std::string& name, std::ostream& os) const {
    if (params != nullptr) {
      for (size_t i = 0; i < params->size(); ++i) {
        if ((*params)[i] == name) {
          os << "@p" << i;
          return;
        }
      }
    }
    os << name;
  }
};

/// Fingerprint helpers: a canonical string form of analyzed expressions.
void PrintExpr(const Expr& e, std::ostream& os, const NameCanon& canon) {
  switch (e.kind) {
    case ExprKind::kNumber: PrintCanonicalNumber(e.number, os); break;
    case ExprKind::kVarRef: canon.PrintVar(e.name, os); break;
    case ExprKind::kAttrRef:
      os << "$";
      canon.PrintTupleVar(e.tuple_var, os);
      os << "." << e.attr_id;
      break;
    case ExprKind::kFieldAccess:
      PrintExpr(*e.args[0], os, canon);
      os << "." << e.attr;
      break;
    case ExprKind::kUnaryMinus:
      os << "(-";
      PrintExpr(*e.args[0], os, canon);
      os << ")";
      break;
    case ExprKind::kBinary:
      os << "(";
      PrintExpr(*e.args[0], os, canon);
      os << static_cast<int>(e.op);
      PrintExpr(*e.args[1], os, canon);
      os << ")";
      break;
    case ExprKind::kCall:
      // Builtins print their resolved id, not the source spelling (the
      // lookup is case-insensitive, so "MAX" and "max" are one function).
      if (!e.is_aggregate && e.call_id >= 0) {
        os << "b" << e.call_id;
      } else {
        os << e.name;
      }
      os << "(";
      for (const ExprPtr& a : e.args) {
        if (a) PrintExpr(*a, os, canon);
        os << ",";
      }
      os << ")";
      break;
    case ExprKind::kTuple:
      os << "<";
      PrintExpr(*e.args[0], os, canon);
      os << ",";
      PrintExpr(*e.args[1], os, canon);
      os << ">";
      break;
  }
}

void PrintCond(const Cond& c, std::ostream& os, const NameCanon& canon) {
  switch (c.kind) {
    case CondKind::kTrue: os << "T"; break;
    case CondKind::kCompare:
      os << "[";
      PrintExpr(*c.lhs, os, canon);
      os << static_cast<int>(c.op);
      PrintExpr(*c.rhs, os, canon);
      os << "]";
      break;
    case CondKind::kNot:
      os << "!";
      PrintCond(*c.left, os, canon);
      break;
    case CondKind::kAnd:
    case CondKind::kOr:
      os << (c.kind == CondKind::kAnd ? "&" : "|") << "(";
      PrintCond(*c.left, os, canon);
      PrintCond(*c.right, os, canon);
      os << ")";
      break;
  }
}

}  // namespace

std::string AggregateSignature::BuildKey() const {
  NameCanon canon{&u_name, &e_name, &param_names};
  std::ostringstream os;
  os << IndexKindName(kind) << "|";
  // The kD-tree is built over (posx, posy) whatever the ranges; they only
  // clip its probes.
  if (kind != IndexKind::kKdNearest) {
    for (const RangeDim& r : ranges) os << "R" << r.attr << ";";
  }
  for (const PartitionDim& p : partitions) os << "P" << p.attr << ";";
  for (const Cond* f : build_filters) {
    os << "F";
    PrintCond(*f, os, canon);
  }
  if (kind == IndexKind::kMinMaxTree) {
    os << (extremum_max ? "|max:" : "|min:") << TermKey(0);
  }
  return os.str();
}

std::string AggregateSignature::TermKey(size_t t) const {
  NameCanon canon{&u_name, &e_name, &param_names};
  std::ostringstream os;
  PrintExpr(*terms[t], os, canon);
  return os.str();
}

std::string CanonicalAggregateFingerprint(const Script& script,
                                          int32_t agg_index) {
  const AggregateDecl& decl = script.program.aggregates[agg_index];
  const std::vector<std::string> params(decl.params.begin() + 1,
                                        decl.params.end());
  NameCanon canon{&decl.params[0], &decl.row_var, &params};
  std::ostringstream os;
  os << "agg|p" << params.size() << "|";
  for (const AggItem& item : decl.items) {
    os << AggFuncName(item.func) << ":" << item.alias << ":";
    if (item.term) PrintExpr(*item.term, os, canon);
    os << ";";
  }
  os << "where:";
  PrintCond(*decl.where, os, canon);
  return os.str();
}

std::vector<const Expr*> AggregateSignature::ProbeValues() const {
  std::vector<const Expr*> out;
  for (const PartitionDim& p : partitions) out.push_back(p.value);
  for (const RangeDim& r : ranges) {
    if (r.lo != nullptr) out.push_back(r.lo);
    if (r.hi != nullptr) out.push_back(r.hi);
  }
  return out;
}

Result<AggregateSignature> ExtractSignature(const Script& script,
                                            int32_t agg_index) {
  const AggregateDecl& decl = script.program.aggregates[agg_index];
  const Schema& schema = script.schema;
  const std::string& u = decl.params[0];
  const std::string& e = decl.row_var;
  const std::vector<std::string> params(decl.params.begin() + 1,
                                        decl.params.end());

  AggregateSignature sig;
  sig.agg_index = agg_index;
  sig.u_name = u;
  sig.e_name = e;
  sig.param_names = params;

  auto naive = [&](std::string reason) {
    sig.kind = IndexKind::kNaive;
    sig.reason = std::move(reason);
    sig.ranges.clear();
    sig.partitions.clear();
    sig.build_filters.clear();
    sig.probe_filters.clear();
    sig.terms.clear();
    sig.term_of_item.clear();
    sig.exclude_self = false;
    return sig;
  };

  // ---- classify conjuncts ----
  std::vector<const Cond*> conjuncts;
  FlattenWhere(*decl.where, &conjuncts);

  struct Bound {
    const Expr* expr;
    bool strict;
  };
  // Per e-attribute collected bounds (we keep one lo and one hi; a second
  // bound of the same sense forces naive — rare and not worth min/max-ing).
  std::map<AttrId, RangeDim> range_of;

  for (const Cond* c : conjuncts) {
    SideUse use;
    CollectUsesCond(*c, u, e, params, &use);
    if (use.uses_random) {
      return naive("random() in where clause");
    }
    if (!use.uses_e) {
      sig.probe_filters.push_back(c);
      continue;
    }
    if (!use.uses_u) {
      sig.build_filters.push_back(c);
      continue;
    }
    // Mixed conjunct: must be a comparison with a plain e.attr on one side
    // and a u-only expression on the other.
    if (c->kind != CondKind::kCompare) {
      return naive("non-comparison condition mixes u and e");
    }
    AttrId attr = Schema::kInvalidAttr;
    const Expr* probe_side = nullptr;
    CompareOp op = c->op;
    SideUse lhs_use, rhs_use;
    CollectUses(*c->lhs, u, e, params, &lhs_use);
    CollectUses(*c->rhs, u, e, params, &rhs_use);
    if (IsPlainAttrRef(*c->lhs, e, &attr) && !rhs_use.uses_e) {
      probe_side = c->rhs.get();
    } else if (IsPlainAttrRef(*c->rhs, e, &attr) && !lhs_use.uses_e) {
      probe_side = c->lhs.get();
      // Flip: expr op e.attr  ==  e.attr op' expr.
      switch (op) {
        case CompareOp::kLt: op = CompareOp::kGt; break;
        case CompareOp::kLe: op = CompareOp::kGe; break;
        case CompareOp::kGt: op = CompareOp::kLt; break;
        case CompareOp::kGe: op = CompareOp::kLe; break;
        default: break;
      }
    } else {
      return naive("conjunct is not of the form e.attr cmp expr(u)");
    }

    if (attr == kKeyAttrId && op == CompareOp::kNe) {
      // e.key <> u.key — self-exclusion.
      AttrId k;
      if (IsPlainAttrRef(*probe_side, u, &k) && k == kKeyAttrId) {
        sig.exclude_self = true;
        continue;
      }
      return naive("key inequality against a non-key expression");
    }
    switch (op) {
      case CompareOp::kEq:
        sig.partitions.push_back(PartitionDim{attr, probe_side, false});
        break;
      case CompareOp::kNe:
        sig.partitions.push_back(PartitionDim{attr, probe_side, true});
        break;
      case CompareOp::kLt:
      case CompareOp::kLe: {
        RangeDim& r = range_of[attr];
        if (r.hi != nullptr) return naive("duplicate upper bound");
        r.attr = attr;
        r.hi = probe_side;
        r.hi_strict = op == CompareOp::kLt;
        break;
      }
      case CompareOp::kGt:
      case CompareOp::kGe: {
        RangeDim& r = range_of[attr];
        if (r.lo != nullptr) return naive("duplicate lower bound");
        r.attr = attr;
        r.lo = probe_side;
        r.lo_strict = op == CompareOp::kGt;
        break;
      }
    }
  }

  // Order range dimensions: position attributes first (most volatile last
  // per the paper's layering advice — but with 2-D trees rebuilt per tick
  // the choice only fixes which is the x dimension).
  for (auto& [attr, dim] : range_of) sig.ranges.push_back(dim);
  std::stable_sort(sig.ranges.begin(), sig.ranges.end(),
                   [&](const RangeDim& a, const RangeDim& b) {
                     auto rank = [&](AttrId id) {
                       const std::string& n = schema.attr(id).name;
                       if (n == "posx") return 0;
                       if (n == "posy") return 1;
                       return 2;
                     };
                     return rank(a.attr) < rank(b.attr);
                   });
  if (sig.ranges.size() > 2) {
    return naive("more than two probe-dependent range attributes");
  }
  if (sig.partitions.size() > 3) {
    return naive("more than three partition attributes");
  }

  // ---- choose the physical strategy from the aggregate functions ----
  const bool returns_row = decl.ReturnsRow();
  auto term_is_e_only = [&](const Expr& t) {
    SideUse use;
    CollectUses(t, u, e, params, &use);
    return use.uses_e && !use.uses_u && !use.uses_random;
  };
  auto term_is_const = [&](const Expr& t) {
    SideUse use;
    CollectUses(t, u, e, params, &use);
    return !use.uses_e && !use.uses_u && !use.uses_random;
  };

  if (returns_row) {
    const AggItem& item = decl.items[0];
    if (item.func == AggFunc::kNearest) {
      // The kD-tree is built over (posx, posy); range constraints on any
      // other attribute cannot be pushed into the spatial search.
      for (const RangeDim& r : sig.ranges) {
        const std::string& n = schema.attr(r.attr).name;
        if (n != "posx" && n != "posy") {
          return naive("nearest with a range constraint on non-position "
                       "attribute '" + n + "'");
        }
      }
      sig.kind = IndexKind::kKdNearest;
      return sig;
    }
    // argmin / argmax.
    if (sig.exclude_self) {
      return naive("argmin/argmax cannot subtract the probing unit "
                   "(extrema are not divisible)");
    }
    if (!term_is_e_only(*item.term) && !term_is_const(*item.term)) {
      return naive("argmin/argmax term depends on the probing unit");
    }
    sig.kind = IndexKind::kMinMaxTree;
    sig.terms.push_back(item.term.get());
    sig.term_of_item.push_back(0);
    sig.extremum_max = item.func == AggFunc::kArgmax;
    return sig;
  }

  bool any_extremum = false;
  bool all_divisible = true;
  for (const AggItem& item : decl.items) {
    if (item.func == AggFunc::kMin || item.func == AggFunc::kMax) {
      any_extremum = true;
    } else if (!AggFuncIsDivisible(item.func)) {
      all_divisible = false;
    }
  }
  if (any_extremum) {
    if (decl.items.size() != 1) {
      return naive("min/max mixed with other select items");
    }
    if (sig.exclude_self) {
      return naive("min/max cannot subtract the probing unit");
    }
    const AggItem& item = decl.items[0];
    if (!term_is_e_only(*item.term) && !term_is_const(*item.term)) {
      return naive("min/max term depends on the probing unit");
    }
    sig.kind = IndexKind::kMinMaxTree;
    sig.terms.push_back(item.term.get());
    sig.term_of_item.push_back(0);
    sig.extremum_max = item.func == AggFunc::kMax;
    return sig;
  }
  if (!all_divisible) {
    return naive("non-divisible aggregate function");
  }

  // Divisible: map items onto term columns. stddev needs the term and its
  // square; the square is synthesized at build time. Without a range
  // dimension every probe covers whole partitions, so a running total per
  // partition answers it.
  sig.kind = sig.ranges.empty() ? IndexKind::kPartitionTotals
                                : IndexKind::kDivisibleRangeTree;
  for (const AggItem& item : decl.items) {
    if (item.func == AggFunc::kCount) {
      sig.term_of_item.push_back(-1);
      continue;
    }
    if (!term_is_e_only(*item.term) && !term_is_const(*item.term)) {
      return naive("aggregate term depends on the probing unit");
    }
    sig.term_of_item.push_back(static_cast<int32_t>(sig.terms.size()));
    sig.terms.push_back(item.term.get());
  }
  return sig;
}

std::string DescribeSignature(const Script& script,
                              const AggregateSignature& sig) {
  const AggregateDecl& decl = script.program.aggregates[sig.agg_index];
  const Schema& schema = script.schema;
  std::ostringstream os;
  os << decl.name << ": " << IndexKindName(sig.kind);
  if (sig.kind == IndexKind::kNaive) {
    os << " (" << sig.reason << ")";
    return os.str();
  }
  if (!sig.ranges.empty()) {
    os << " ranges(";
    for (size_t i = 0; i < sig.ranges.size(); ++i) {
      if (i > 0) os << ", ";
      os << schema.attr(sig.ranges[i].attr).name;
    }
    os << ")";
  }
  if (!sig.partitions.empty()) {
    os << " partitions(";
    for (size_t i = 0; i < sig.partitions.size(); ++i) {
      if (i > 0) os << ", ";
      os << schema.attr(sig.partitions[i].attr).name
         << (sig.partitions[i].negated ? "<>" : "=");
    }
    os << ")";
  }
  if (!sig.build_filters.empty()) {
    os << " build-filters(" << sig.build_filters.size() << ")";
  }
  if (sig.exclude_self) os << " exclude-self";
  if (!sig.terms.empty()) os << " terms(" << sig.terms.size() << ")";
  return os.str();
}

}  // namespace sgl
