#include "vm/bytecode.h"

#include <cstdio>
#include <sstream>

#include "util/string_util.h"

namespace sgl {
namespace vm {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kLoadAttr: return "load";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kNeg: return "neg";
    case Op::kAbs: return "abs";
    case Op::kMin2: return "min";
    case Op::kMax2: return "max";
    case Op::kSqrt: return "sqrt";
    case Op::kFloor: return "floor";
    case Op::kCeil: return "ceil";
    case Op::kClamp: return "clamp";
    case Op::kCmp: return "cmp";
    case Op::kMaskAnd: return "mand";
    case Op::kMaskAndNot: return "mandn";
    case Op::kMaskOr: return "mor";
    case Op::kMaskNot: return "mnot";
    case Op::kRandom: return "random";
    case Op::kAgg: return "agg";
    case Op::kPerform: return "perform";
  }
  return "?";
}

void CompiledProgram::BindMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix,
                                  uint32_t extra_flags) {
  // Batch boundaries move with the chunking (thread count / grain), so
  // everything counted per batch or per dispatch is execution-dependent;
  // the per-unit tallies are not.
  const uint32_t exec = obs::kMetricExecDependent | extra_flags;
  batches = registry->GetCounter(prefix + "batches", exec);
  batch_dispatches = registry->GetCounter(prefix + "batch_dispatches", exec);
  scalar_lane_ops =
      registry->GetCounter(prefix + "scalar_lane_ops", extra_flags);
  agg_scan_probes =
      registry->GetCounter(prefix + "agg_scan_probes", extra_flags);
  action_scan_execs =
      registry->GetCounter(prefix + "action_scan_execs", extra_flags);
  interp_fallbacks = registry->GetCounter(prefix + "interp_fallbacks", exec);
}

bool OpIsScalar(Op op) {
  return op == Op::kRandom || op == Op::kAgg || op == Op::kPerform;
}

namespace {

const char* CmpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "eq";
    case CompareOp::kNe: return "ne";
    case CompareOp::kLt: return "lt";
    case CompareOp::kLe: return "le";
    case CompareOp::kGt: return "gt";
    case CompareOp::kGe: return "ge";
  }
  return "?";
}

std::string RegList(const std::vector<int32_t>& regs) {
  std::string out;
  for (size_t i = 0; i < regs.size(); ++i) {
    if (i > 0) out += ", ";
    out += "r" + std::to_string(regs[i]);
  }
  return out;
}

/// One listing line. Shared by the decision program and the aggregate
/// scan programs; `row_prefix` names what kLoadAttr scans ("u" for the
/// deciding unit, "e" for the aggregate's scanned row) and `indent`
/// shifts scan listings under their aggregate header.
void PrintInstr(std::ostringstream& os, size_t pc, const Instr& in,
                const std::vector<double>& consts, int32_t num_hoisted,
                const Script* script, const std::vector<PerformSig>* performs,
                const char* row_prefix, const char* indent) {
  char head[32];
  std::snprintf(head, sizeof(head), "%s%03d  ", indent,
                static_cast<int>(pc));
  os << head;
  switch (in.op) {
    case Op::kConst:
      os << "r" << in.dst << " <- const " << FormatDouble(consts[in.aux], 6)
         << (static_cast<int32_t>(pc) < num_hoisted
                 ? "   ; hoisted (unit-invariant)"
                 : "");
      break;
    case Op::kLoadAttr:
      os << "r" << in.dst << " <- load ";
      if (script != nullptr && in.aux < script->schema.NumAttrs()) {
        os << row_prefix << "." << script->schema.attr(in.aux).name;
      } else {
        os << "attr#" << in.aux;
      }
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kMin2:
    case Op::kMax2:
      os << "r" << in.dst << " <- " << OpName(in.op) << " r" << in.a
         << ", r" << in.b;
      break;
    case Op::kNeg:
    case Op::kAbs:
    case Op::kSqrt:
    case Op::kFloor:
    case Op::kCeil:
      os << "r" << in.dst << " <- " << OpName(in.op) << " r" << in.a;
      break;
    case Op::kClamp:
      os << "r" << in.dst << " <- clamp r" << in.a << ", r" << in.b
         << ", r" << in.c;
      break;
    case Op::kCmp:
      os << "m" << in.dst << " <- cmp." << CmpName(in.cmp) << " r" << in.a
         << ", r" << in.b;
      break;
    case Op::kMaskAnd:
    case Op::kMaskAndNot:
    case Op::kMaskOr:
    case Op::kMaskNot:
      os << "m" << in.dst << " <- " << OpName(in.op) << " m" << in.a;
      if (in.op != Op::kMaskNot) os << ", m" << in.b;
      break;
    case Op::kRandom:
      os << "r" << in.dst << " <- random r" << in.a << " [m" << in.mask
         << "]";
      break;
    case Op::kAgg:
      os << "r" << in.dst;
      if (in.b > 1) os << "..r" << (in.dst + in.b - 1);
      os << " <- agg ";
      if (script != nullptr) {
        os << script->program.aggregates[in.aux].name;
      } else {
        os << "#" << in.aux;
      }
      os << "(" << RegList(in.args) << ") [m" << in.mask << "]";
      if (in.has_probe) {
        // The probe side the provider receives as batch columns.
        os << " probe(" << RegList(in.probe_values);
        for (size_t i = 0; i < in.probe_filters.size(); ++i) {
          os << (i > 0 || !in.probe_values.empty() ? ", " : "") << "m"
             << in.probe_filters[i];
        }
        os << ")";
      }
      break;
    case Op::kPerform:
      os << "perform ";
      if (script != nullptr && performs != nullptr) {
        os << script->program.actions[(*performs)[in.aux].action_index].name;
      } else {
        os << "#" << in.aux;
      }
      os << "(" << RegList(in.args) << ") [m" << in.mask << "]";
      break;
  }
  os << "\n";
}

}  // namespace

std::string CompiledProgram::Disassemble() const {
  std::ostringstream os;
  for (size_t pc = 0; pc < code.size(); ++pc) {
    PrintInstr(os, pc, code[pc], consts, num_hoisted, script, &performs,
               "u", "  ");
  }
  for (size_t i = 0; i < agg_scans.size(); ++i) {
    const char* name = script != nullptr
                           ? script->program.aggregates[i].name.c_str()
                           : "?";
    const AggScanProgram* scan = agg_scans[i].get();
    if (scan == nullptr) {
      os << "  -- aggregate " << name << ": interpreted probe";
      if (i < agg_notes.size() && !agg_notes[i].empty()) {
        os << " (" << agg_notes[i] << ")";
      }
      os << " --\n";
      continue;
    }
    os << "  -- aggregate " << name << ": vectorized scan ("
       << scan->code.size() << " instrs, " << scan->num_regs << " regs, "
       << scan->num_masks << " masks; where -> m" << scan->where_mask
       << ") --\n";
    // Uniform registers the executor broadcasts per probe (no
    // instructions write them).
    for (size_t j = 0; j < scan->arg_regs.size(); ++j) {
      os << "    uni  r" << scan->arg_regs[j] << " <- arg ";
      if (script != nullptr) {
        os << "'" << script->program.aggregates[i].params[j + 1] << "'";
      } else {
        os << j;
      }
      os << "\n";
    }
    for (const auto& [attr, reg] : scan->u_attr_regs) {
      os << "    uni  r" << reg << " <- ";
      if (script != nullptr && attr < script->schema.NumAttrs()) {
        os << "u." << script->schema.attr(attr).name;
      } else {
        os << "u.attr#" << attr;
      }
      os << "\n";
    }
    for (size_t pc = 0; pc < scan->code.size(); ++pc) {
      PrintInstr(os, pc, scan->code[pc], scan->consts, scan->num_hoisted,
                 script, nullptr, "e", "    ");
    }
    for (const AggScanItem& item : scan->items) {
      os << "    acc  " << AggFuncName(item.func);
      if (item.term_reg >= 0) os << " r" << item.term_reg;
      os << "\n";
    }
    if (scan->metric_reg >= 0) {
      os << "    best " << AggFuncName(scan->row_func) << " metric r"
         << scan->metric_reg << " (row-order, key tiebreak)\n";
    }
  }
  for (size_t i = 0; i < action_scans.size(); ++i) {
    const char* name = script != nullptr
                           ? script->program.actions[i].name.c_str()
                           : "?";
    const ActionScanProgram* scan = action_scans[i].get();
    if (scan == nullptr) {
      os << "  -- action " << name << ": interpreted exec";
      if (i < action_notes.size() && !action_notes[i].empty()) {
        os << " (" << action_notes[i] << ")";
      }
      os << " --\n";
      continue;
    }
    os << "  -- action " << name << ": vectorized update scan ("
       << scan->code.size() << " instrs, " << scan->num_regs << " regs, "
       << scan->num_masks << " masks) --\n";
    for (size_t j = 0; j < scan->arg_regs.size(); ++j) {
      os << "    uni  r" << scan->arg_regs[j] << " <- arg ";
      if (script != nullptr) {
        os << "'" << script->program.actions[i].params[j + 1] << "'";
      } else {
        os << j;
      }
      os << "\n";
    }
    for (const auto& [attr, reg] : scan->u_attr_regs) {
      os << "    uni  r" << reg << " <- ";
      if (script != nullptr && attr < script->schema.NumAttrs()) {
        os << "u." << script->schema.attr(attr).name;
      } else {
        os << "u.attr#" << attr;
      }
      os << "\n";
    }
    for (size_t pc = 0; pc < scan->code.size(); ++pc) {
      PrintInstr(os, pc, scan->code[pc], scan->consts, scan->num_hoisted,
                 script, nullptr, "e", "    ");
    }
    for (const ActionScanUpdate& update : scan->updates) {
      os << "    upd  [m" << update.where_mask << "]";
      for (const ActionScanSet& set : update.sets) {
        os << " e.";
        if (script != nullptr && set.attr < script->schema.NumAttrs()) {
          os << script->schema.attr(set.attr).name;
        } else {
          os << "attr#" << set.attr;
        }
        switch (set.op) {
          case SetOp::kAdd: os << " += r" << set.value_reg; break;
          case SetOp::kMaxOf: os << " max= r" << set.value_reg; break;
          case SetOp::kMinOf: os << " min= r" << set.value_reg; break;
          case SetOp::kSetPriority:
            os << " set= r" << set.value_reg << " @r" << set.priority_reg;
            break;
        }
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace vm
}  // namespace sgl
