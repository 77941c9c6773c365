// Differential fuzzing of the bytecode VM against the interpreter.
//
// A seeded deterministic generator emits random well-typed SGL scripts —
// nested arithmetic (division and modulus guarded against runtime
// errors), builtins, random(), aggregate probes, and/or/not conditions,
// if/else nesting, let bindings, user-function inlining — then a
// compiled and an interpreted simulation of the same small world run 20
// ticks in lockstep, under each evaluator mode (naive, indexed, adaptive;
// sharing on). Any bit divergence in the environment table fails
// with the offending script source and tick. Seeds are fixed, so a
// failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "sgl/analyzer.h"

namespace sgl {
namespace {

constexpr int32_t kSeeds = 24;
constexpr int64_t kTicks = 20;
constexpr int32_t kUnits = 48;

/// SplitMix64: tiny, deterministic, platform-independent (no <random>
/// distributions, whose sequences vary across standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n).
  int32_t Below(int32_t n) {
    return static_cast<int32_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// Generates one well-typed script. Every emitted expression is a scalar
/// over the fuzz schema (player/posx/posy/hp/score); division and
/// modulus only ever see non-zero constant right-hand sides, and sqrt
/// only non-negative arguments, so generated scripts never raise runtime
/// errors — error-path equivalence is pinned separately in vm_test.cc.
class ScriptGen {
 public:
  explicit ScriptGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::ostringstream os;
    os << "aggregate Rivals(u, r) {\n"
       << "  select count(*) from E e\n"
       << "  where e.player != u.player\n"
       << "    and e.posx >= u.posx - r and e.posx <= u.posx + r;\n"
       << "}\n"
       << "aggregate Field(u) {\n"
       << "  select avg(e.posx) as x, sum(e.hp) as h from E e\n"
       << "  where e.player != u.player;\n"
       << "}\n"
       << "action Score(u, amount) {\n"
       << "  update e where e.key = u.key set score += amount;\n"
       << "}\n"
       << "action Drain(u, amount) {\n"
       << "  update e where e.player != u.player set score += amount;\n"
       << "}\n"
       << "function helper(u, x) {\n";
    // The helper body reads its scalar parameter, exercising inlined
    // frames and parameter slot assignment.
    locals_ = {"x"};
    in_helper_ = true;
    EmitBlock(os, 1, 2);
    in_helper_ = false;
    os << "}\n"
       << "function main(u) {\n";
    locals_.clear();
    EmitBlock(os, 2 + rng_.Below(3), 3);
    os << "}\n";
    return os.str();
  }

 private:
  /// A scalar expression of at most `depth` further nesting levels.
  std::string Expr(int32_t depth) {
    if (depth <= 0) return Leaf();
    switch (rng_.Below(10)) {
      case 0: return Leaf();
      case 1:
        return "(" + Expr(depth - 1) + " + " + Expr(depth - 1) + ")";
      case 2:
        return "(" + Expr(depth - 1) + " - " + Expr(depth - 1) + ")";
      case 3:
        return "(" + Expr(depth - 1) + " * " + SmallConst() + ")";
      case 4:  // guarded: constant non-zero divisor
        return "(" + Expr(depth - 1) + " / " + SmallConst() + ")";
      case 5:  // guarded: constant non-zero modulus
        return "(" + Expr(depth - 1) + " mod " + SmallConst() + ")";
      case 6:
        return "abs(" + Expr(depth - 1) + ")";
      case 7: {
        const char* fn = rng_.Below(2) == 0 ? "min" : "max";
        return std::string(fn) + "(" + Expr(depth - 1) + ", " +
               Expr(depth - 1) + ")";
      }
      case 8:  // guarded: sqrt of a non-negative argument
        return "sqrt(abs(" + Expr(depth - 1) + "))";
      default:
        return "(random(" + std::to_string(rng_.Below(16)) + ") mod " +
               SmallConst() + ")";
    }
  }

  std::string Leaf() {
    switch (rng_.Below(6)) {
      case 0: return std::to_string(rng_.Below(21) - 10);
      case 1: return "u.posx";
      case 2: return "u.posy";
      case 3: return "u.hp";
      case 4:
        if (!locals_.empty()) {
          return locals_[rng_.Below(static_cast<int32_t>(locals_.size()))];
        }
        return "u.hp";
      default:
        switch (rng_.Below(3)) {
          case 0:
            return "Rivals(u, " + std::to_string(2 + rng_.Below(6)) + ")";
          case 1: return "Field(u).x";
          default: return "Field(u).h";
        }
    }
  }

  std::string SmallConst() { return std::to_string(2 + rng_.Below(8)); }

  std::string Cond(int32_t depth) {
    if (depth <= 0 || rng_.Below(3) == 0) {
      static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
      return Expr(1) + " " + kOps[rng_.Below(6)] + " " + Expr(1);
    }
    switch (rng_.Below(3)) {
      case 0: return Cond(depth - 1) + " and " + Cond(depth - 1);
      case 1: return Cond(depth - 1) + " or " + Cond(depth - 1);
      default: return "not (" + Cond(depth - 1) + ")";
    }
  }

  void Indent(std::ostringstream& os, int32_t level) {
    for (int32_t i = 0; i < level; ++i) os << "  ";
  }

  /// `n` statements at nesting `level`; lets bound here stay visible to
  /// later statements of the same block (and deeper ones).
  void EmitBlock(std::ostringstream& os, int32_t n, int32_t level) {
    const size_t mark = locals_.size();
    for (int32_t i = 0; i < n; ++i) EmitStmt(os, level);
    if (n == 0) {
      Indent(os, level);
      os << "perform Score(u, 1);\n";
    }
    locals_.resize(mark);
  }

  void EmitStmt(std::ostringstream& os, int32_t level) {
    Indent(os, level);
    switch (rng_.Below(5)) {
      case 0: {
        std::string name = "v" + std::to_string(next_local_++);
        os << "let " << name << " = " << Expr(2) << ";\n";
        locals_.push_back(name);
        break;
      }
      case 1:
        os << "perform Score(u, " << Expr(2) << ");\n";
        break;
      case 2:
        os << "perform Drain(u, " << Expr(1) << ");\n";
        break;
      case 3:
        // Inside the helper, performing it again would be recursion (the
        // analyzer rejects perform cycles).
        if (in_helper_) {
          os << "perform Score(u, " << Expr(1) << ");\n";
        } else {
          os << "perform helper(u, " << Expr(1) << ");\n";
        }
        break;
      default: {
        os << "if " << Cond(2) << " then {\n";
        // Lets inside a branch die with it, so no conditionally-bound
        // reads escape (which would make the compiler bail — legal, but
        // then the fuzzer would only be testing the interpreter).
        EmitBlock(os, 1 + rng_.Below(2), level + 1);
        Indent(os, level);
        if (level < 5 && rng_.Below(2) == 0) {
          os << "} else {\n";
          EmitBlock(os, 1 + rng_.Below(2), level + 1);
          Indent(os, level);
        }
        os << "}\n";
        break;
      }
    }
  }

  Rng rng_;
  std::vector<std::string> locals_;
  int32_t next_local_ = 0;
  bool in_helper_ = false;
};

Schema FuzzSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("player", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("hp", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("score", CombineType::kSum).ok());
  return s;
}

EnvironmentTable FuzzWorld(const Schema& s, uint64_t seed) {
  Rng rng(seed * 0x51ed2701u + 99);
  EnvironmentTable t(s);
  for (int32_t i = 0; i < kUnits; ++i) {
    EXPECT_TRUE(t.AddRow({static_cast<double>(rng.Below(3)),
                          static_cast<double>(rng.Below(17)),
                          static_cast<double>(rng.Below(17)),
                          static_cast<double>(1 + rng.Below(40)), 0})
                    .ok());
  }
  return t;
}

std::unique_ptr<Simulation> BuildFuzz(const std::string& source, uint64_t seed,
                                      EvaluatorMode mode, bool compiled,
                                      int32_t threads) {
  Schema schema = FuzzSchema();
  auto script = CompileScript(source, schema);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  if (!script.ok()) return nullptr;
  SimulationConfig config;
  config.eval_mode = mode;
  config.compiled = compiled;  // sharing stays on (the default)
  config.threads = threads;
  config.seed = seed;
  config.move_x_attr = "";  // the fuzz schema has no movement attributes
  auto sim = SimulationBuilder()
                 .SetTable(FuzzWorld(schema, seed))
                 .SetConfig(config)
                 .AddScript("fuzz", script.MoveValue())
                 .Build();
  EXPECT_TRUE(sim.ok()) << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

TEST(VmFuzzTest, RandomScriptsStayLockstepWithInterpreter) {
  Schema schema = FuzzSchema();
  int32_t compiled_scripts = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ScriptGen gen(seed * 0x9e3779b9u);
    const std::string source = gen.Generate();
    auto parsed = CompileScript(source, schema);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << " generated an invalid "
                             << "script: " << parsed.status().ToString() << "\n"
                             << source;

    // 4 threads on the compiled side doubles as a chunk-boundary test:
    // batches must split exactly where the interpreter's chunks do. The
    // indexed and adaptive evaluators put every fuzzed aggregate call
    // behind the providers' batch seam (sharing on), against their
    // per-unit Eval on the interpreted side.
    const int32_t threads = seed % 2 == 0 ? 4 : 1;
    for (EvaluatorMode mode : {EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
                               EvaluatorMode::kAdaptive}) {
      SCOPED_TRACE(EvaluatorModeName(mode));
      auto compiled = BuildFuzz(source, seed, mode, true, threads);
      auto interpreted = BuildFuzz(source, seed, mode, false, 1);
      ASSERT_NE(compiled, nullptr);
      ASSERT_NE(interpreted, nullptr);
      if (mode == EvaluatorMode::kNaive &&
          compiled->session(0).compiled != nullptr) {
        ++compiled_scripts;
      }

      for (int64_t tick = 0; tick < kTicks; ++tick) {
        ASSERT_TRUE(compiled->Tick().ok())
            << "seed " << seed << "\n" << source;
        ASSERT_TRUE(interpreted->Tick().ok())
            << "seed " << seed << "\n" << source;
        ASSERT_TRUE(compiled->table().Equals(interpreted->table()))
            << "seed " << seed << " diverged at tick " << tick << ":\n"
            << compiled->table().DiffString(interpreted->table())
            << "\nscript:\n"
            << source;
      }
    }
  }
  // The generator is tuned so (nearly) every script compiles; if this
  // floor breaks, the fuzzer has stopped testing the VM.
  EXPECT_GE(compiled_scripts, kSeeds - 2)
      << "only " << compiled_scripts << "/" << kSeeds
      << " fuzz scripts compiled to bytecode";
}

}  // namespace
}  // namespace sgl
