// Bytecode compiler: analyzed SGL -> vm::CompiledProgram.
//
// CompileProgram lowers a Script's decision logic (main with every user
// function inlined) to the straight-line predicated bytecode of
// vm/bytecode.h, performing at compile time what the interpreter redoes
// per unit per tick:
//   * constant folding over literals and const-arithmetic, with the
//     folded values interned into a hoisted unit-invariant prologue;
//   * name resolution: let-bindings and scalar parameters become register
//     aliases (zero instructions), field accesses on vectors and
//     aggregate rows become compile-time register selection;
//   * common-subexpression elimination over unit-attribute loads (one
//     kLoadAttr per attribute per program, shared across inlined calls);
//   * control-flow lowering of if/and/or to lane masks, including the
//     refined error masks that keep runtime error detection bit-exact
//     with the interpreter's short-circuit evaluation order.
//
// Compilation is conservative: any construct whose batch execution could
// diverge from the interpreter (static type errors the interpreter would
// only hit at runtime, reads of conditionally-bound locals) fails with
// StatusCode::kUnimplemented and a human-readable reason. The session
// then simply keeps interpreting — the reason string is surfaced by
// Simulation::Explain()'s Bytecode block.
#ifndef SGL_VM_COMPILER_H_
#define SGL_VM_COMPILER_H_

#include <memory>
#include <vector>

#include "opt/signature.h"
#include "sgl/analyzer.h"
#include "util/status.h"
#include "vm/bytecode.h"

namespace sgl {
namespace vm {

/// Compile `script`'s decision phase to bytecode. The script must outlive
/// the returned program (the program keeps a pointer for disassembly).
/// `signatures` (one per aggregate declaration, or empty) give each kAgg
/// site its probe side: the builder hands them in whenever an aggregate
/// provider will answer the sites, so it receives the probe values and
/// filter outcomes as batch columns instead of walking the AST per unit.
Result<std::unique_ptr<CompiledProgram>> CompileProgram(
    const Script& script,
    const std::vector<AggregateSignature>& signatures = {});

}  // namespace vm
}  // namespace sgl

#endif  // SGL_VM_COMPILER_H_
