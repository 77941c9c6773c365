// Compiled-evaluation lockstep: every scenario under every evaluator mode,
// thread count, and sharing setting must evolve bit-identically with
// SimulationConfig::compiled on and off — the batch VM (src/vm/) against
// the interpreter oracle. Also pins down that the scenario scripts
// actually compile (no silent interpreter fallback), that the VM really
// executes (batch counters advance), and that runtime errors surface with
// the interpreter's exact message and effect-log prefix.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "scenario/scenario.h"
#include "sgl/analyzer.h"
#include "vm/compiler.h"
#include "vm/vm.h"

namespace sgl {
namespace {

constexpr int64_t kTicks = 10;

std::unique_ptr<Simulation> BuildScenario(const std::string& name,
                                          EvaluatorMode mode, int32_t threads,
                                          bool compiled, bool sharing) {
  ScenarioParams params;
  params.units = 60;
  params.density = 0.02;
  params.seed = 31;
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = threads;
  config.compiled = compiled;
  config.sharing = sharing;
  auto sim = ScenarioRegistry::Global().BuildSimulation(name, params, config);
  EXPECT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

using VmCase = std::tuple<std::string, EvaluatorMode, int32_t>;

class VmLockstepTest : public ::testing::TestWithParam<VmCase> {};

TEST_P(VmLockstepTest, CompiledMatchesInterpretedBitExactly) {
  const auto& [name, mode, threads] = GetParam();
  for (bool sharing : {true, false}) {
    auto compiled = BuildScenario(name, mode, threads, true, sharing);
    auto interpreted = BuildScenario(name, mode, threads, false, sharing);
    ASSERT_NE(compiled, nullptr);
    ASSERT_NE(interpreted, nullptr);

    // Every scenario script must lower to bytecode — a conservative-bail
    // regression would silently turn this whole suite into a no-op.
    for (int32_t i = 0; i < compiled->NumScripts(); ++i) {
      EXPECT_NE(compiled->session(i).compiled, nullptr)
          << name << " script '" << compiled->session(i).name
          << "' fell back to the interpreter: "
          << compiled->session(i).compile_note;
      EXPECT_EQ(interpreted->session(i).compiled, nullptr);
    }

    for (int64_t tick = 0; tick < kTicks; ++tick) {
      ASSERT_TRUE(compiled->Tick().ok())
          << name << " compiled tick " << tick << " (sharing "
          << (sharing ? "on" : "off") << ")";
      ASSERT_TRUE(interpreted->Tick().ok())
          << name << " interpreted tick " << tick;
      ASSERT_TRUE(compiled->table().Equals(interpreted->table()))
          << name << " diverged at tick " << tick << " (mode "
          << EvaluatorModeName(mode) << ", " << threads << " threads, sharing "
          << (sharing ? "on" : "off") << "):\n"
          << compiled->table().DiffString(interpreted->table());
    }

    // The VM must actually have run: at least one session dispatched
    // batches, and no batch fell back to the interpreter (scenario
    // scripts are error-free).
    int64_t batches = 0;
    int64_t fallbacks = 0;
    for (int32_t i = 0; i < compiled->NumScripts(); ++i) {
      const auto& prog = *compiled->session(i).compiled;
      batches += prog.batches->value();
      fallbacks += prog.interp_fallbacks->value();
    }
    EXPECT_GT(batches, 0) << name << ": the batch VM never executed";
    EXPECT_EQ(fallbacks, 0) << name << ": unexpected interpreter fallbacks";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, VmLockstepTest,
    ::testing::Combine(
        ::testing::ValuesIn(ScenarioRegistry::Global().List()),
        ::testing::Values(EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
                          EvaluatorMode::kAdaptive),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<VmCase>& info) {
      return std::get<0>(info.param) +
             std::string("_") + EvaluatorModeName(std::get<1>(info.param)) +
             "_" + std::to_string(std::get<2>(info.param)) + "t";
    });

// ------------------------------------------------ custom-script contracts

Schema VmSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("player", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("hp", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("damage", CombineType::kSum).ok());
  return s;
}

EnvironmentTable VmWorld(const Schema& s, int32_t units) {
  EnvironmentTable t(s);
  for (int32_t i = 0; i < units; ++i) {
    // (player, posx, posy, hp, damage); hp == 0 on key 7 only.
    EXPECT_TRUE(
        t.AddRow({static_cast<double>(i % 2), static_cast<double>(i % 13),
                  static_cast<double>(i % 11), i == 7 ? 0.0 : 10.0 + i, 0})
            .ok());
  }
  return t;
}

/// Defaults to pure naive evaluation (no provider, sharing off), where
/// kAgg probes use the vectorized scans.
std::unique_ptr<Simulation> BuildCustom(
    const char* source, bool compiled, int32_t units = 40,
    EvaluatorMode mode = EvaluatorMode::kNaive, bool sharing = false) {
  Schema schema = VmSchema();
  auto script = CompileScript(source, schema);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  SimulationConfig config;
  config.eval_mode = mode;
  config.compiled = compiled;
  config.sharing = sharing;
  config.move_x_attr = "";  // no movement attrs in this schema
  auto sim = SimulationBuilder()
                 .SetTable(VmWorld(schema, units))
                 .SetConfig(config)
                 .AddScript("vm", script.MoveValue())
                 .Build();
  EXPECT_TRUE(sim.ok()) << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

// A data-dependent division by zero must abort the tick with the
// interpreter's exact error message, and both engines must have emitted
// the same effect-log prefix (units before the failing one).
TEST(VmErrorTest, RuntimeErrorsAreBitExact) {
  const char* source = R"(
    action Hit(u, amount) { update e where e.player != u.player
                            set damage += amount; }
    function main(u) {
      if u.posx > 1 then perform Hit(u, 100 / u.hp);
    }
  )";
  auto compiled = BuildCustom(source, true);
  auto interpreted = BuildCustom(source, false);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;

  Status vm_status = compiled->Tick();
  Status interp_status = interpreted->Tick();
  ASSERT_FALSE(vm_status.ok());
  ASSERT_FALSE(interp_status.ok());
  EXPECT_EQ(vm_status.ToString(), interp_status.ToString());
  EXPECT_NE(vm_status.ToString().find("division by zero"), std::string::npos)
      << vm_status.ToString();
}

// A probe-side range bound that fails for one unit (100 / u.hp, and hp is
// 0 on key 7): the kAgg site's compiled probe side flags that lane, the
// batch re-runs through the interpreter, and the provider's per-unit Eval
// reports the error. Compiled and interpreted runs must return the
// identical error and the identical partial effect log (the units before
// key 7), with sharing on and off.
TEST(VmErrorTest, ProbeSideErrorsAreBitExact) {
  const char* source = R"(
    aggregate Near(u) { select count(*) from E e
                        where e.player != u.player
                          and e.posx >= u.posx - 100 / u.hp
                          and e.posx <= u.posx + 3; }
    action Hit(u, amount) { update e where e.key = u.key
                            set damage += amount; }
    function main(u) {
      let n = Near(u);
      perform Hit(u, n + 1);
    }
  )";
  for (bool sharing : {true, false}) {
    SCOPED_TRACE(sharing ? "sharing on" : "sharing off");
    auto compiled =
        BuildCustom(source, true, 40, EvaluatorMode::kIndexed, sharing);
    auto interpreted =
        BuildCustom(source, false, 40, EvaluatorMode::kIndexed, sharing);
    ASSERT_NE(compiled, nullptr);
    ASSERT_NE(interpreted, nullptr);
    const ScriptSession& session = compiled->session(0);
    ASSERT_NE(session.compiled, nullptr) << session.compile_note;
    // The site must carry its compiled probe side: the error path under
    // test is that side's flag, not a per-lane fallback.
    bool site_has_probe = false;
    for (const vm::Instr& in : session.compiled->code) {
      if (in.op == vm::Op::kAgg) site_has_probe |= in.has_probe;
    }
    ASSERT_TRUE(site_has_probe) << session.compiled->Disassemble();

    Status vm_status = compiled->Tick();
    Status interp_status = interpreted->Tick();
    ASSERT_FALSE(vm_status.ok());
    EXPECT_EQ(vm_status.ToString(), interp_status.ToString());
    EXPECT_NE(vm_status.ToString().find("division by zero"),
              std::string::npos)
        << vm_status.ToString();
    EXPECT_TRUE(compiled->table().Equals(interpreted->table()))
        << compiled->table().DiffString(interpreted->table());

    // The effect log itself: one batch executor over every unit against
    // the interpreter unit by unit, on the same (freshly built) indexes.
    const EnvironmentTable& table = compiled->table();
    const TickRandom rnd(compiled->config().seed, 0);
    ASSERT_TRUE(session.provider->BuildIndexes(table, rnd).ok());
    EffectBuffer via_vm;
    via_vm.Begin(table);
    vm::BatchExecutor exec;
    Status vm_run = exec.Run(*session.compiled, *session.interp, table, 0,
                             table.NumRows(), rnd, &via_vm, 0);
    EffectBuffer via_interp;
    via_interp.Begin(table);
    Status interp_run = Status::OK();
    for (RowId r = 0; r < table.NumRows() && interp_run.ok(); ++r) {
      interp_run = session.interp->RunUnit(table, r, rnd, &via_interp, 0);
    }
    ASSERT_FALSE(vm_run.ok());
    EXPECT_EQ(vm_run.ToString(), interp_run.ToString());
    const AttrId damage = table.schema().Find("damage");
    int32_t hit = 0;
    for (RowId r = 0; r < table.NumRows(); ++r) {
      EXPECT_EQ(via_vm.Get(r, damage), via_interp.Get(r, damage))
          << "row " << r;
      hit += via_interp.Get(r, damage) != 0.0;
    }
    EXPECT_EQ(hit, 7) << "units before key 7 perform, the rest do not";
  }
}

// A runtime error inside an action's update expressions: the vectorized
// action scan must apply nothing, fall back to the interpreter's
// ExecAction, and surface its exact error.
TEST(VmErrorTest, ActionUpdateErrorsAreBitExact) {
  const char* source = R"(
    action Hit(u, amount) { update e where e.player != u.player
                            set damage += amount / e.hp; }
    function main(u) {
      if u.posx > 1 then perform Hit(u, 100);
    }
  )";
  auto compiled = BuildCustom(source, true);
  auto interpreted = BuildCustom(source, false);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;
  // The action itself must have lowered to a scan — the error path under
  // test is the scan's buffered-discard, not a compile-time decline.
  ASSERT_EQ(compiled->session(0).compiled->action_scans.size(), 1u);
  ASSERT_NE(compiled->session(0).compiled->action_scans[0], nullptr)
      << compiled->session(0).compiled->action_notes[0];

  Status vm_status = compiled->Tick();
  Status interp_status = interpreted->Tick();
  ASSERT_FALSE(vm_status.ok());
  ASSERT_FALSE(interp_status.ok());
  EXPECT_EQ(vm_status.ToString(), interp_status.ToString());
  EXPECT_NE(vm_status.ToString().find("division by zero"), std::string::npos)
      << vm_status.ToString();
  EXPECT_TRUE(compiled->table().Equals(interpreted->table()))
      << compiled->table().DiffString(interpreted->table());
}

// Row-returning aggregates (nearest/argmin) and the action's update scan
// must vectorize — and stay lockstep with the interpreter, including
// random() draws keyed by the scanned row inside the update.
TEST(VmLockstepTest, RowAggregatesAndActionScansVectorize) {
  const char* source = R"(
    aggregate Foe(u) { select nearest(*) from E e
                       where e.player != u.player; }
    aggregate Weakest(u) { select argmin(e.hp) from E e
                           where e.player != u.player; }
    action Drain(u, cap) { update e where e.player != u.player and
                                          e.hp <= cap
                           set damage += random(3) mod 5 + 1; }
    function main(u) {
      let f = Foe(u);
      let w = Weakest(u);
      if f.found = 1 and f.dist2 <= 64 then perform Drain(u, w.hp + 20);
    }
  )";
  auto compiled = BuildCustom(source, true, 80);
  auto interpreted = BuildCustom(source, false, 80);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;
  const auto& prog = *compiled->session(0).compiled;
  ASSERT_EQ(prog.agg_scans.size(), 2u);
  EXPECT_NE(prog.agg_scans[0], nullptr) << prog.agg_notes[0];
  EXPECT_NE(prog.agg_scans[1], nullptr) << prog.agg_notes[1];
  ASSERT_EQ(prog.action_scans.size(), 1u);
  EXPECT_NE(prog.action_scans[0], nullptr) << prog.action_notes[0];

  for (int64_t tick = 0; tick < 15; ++tick) {
    ASSERT_TRUE(compiled->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(interpreted->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(compiled->table().Equals(interpreted->table()))
        << "diverged at tick " << tick << ":\n"
        << compiled->table().DiffString(interpreted->table());
  }
  EXPECT_GT(prog.agg_scan_probes->value(), 0);
  EXPECT_GT(prog.action_scan_execs->value(), 0);
  const std::string disasm = prog.Disassemble();
  EXPECT_NE(disasm.find("best nearest"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("vectorized update scan"), std::string::npos)
      << disasm;
}

// Scripts the conservative compiler declines run through the interpreter,
// and Explain says why.
TEST(VmCompileTest, ConditionallyBoundLocalFallsBackToInterpreter) {
  const char* source = R"(
    action Mark(u, amount) { update e where e.player = u.player
                             set damage += amount; }
    function main(u) {
      if u.hp > 50 then let bonus = 2;
      if u.hp > 90 then perform Mark(u, bonus);
    }
  )";
  auto sim = BuildCustom(source, true);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->session(0).compiled, nullptr);
  EXPECT_NE(sim->session(0).compile_note.find("conditionally bound"),
            std::string::npos)
      << sim->session(0).compile_note;
  // The interpreter path still runs the simulation.
  auto interpreted = BuildCustom(source, false);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_TRUE(sim->Run(3).ok());
  ASSERT_TRUE(interpreted->Run(3).ok());
  EXPECT_TRUE(sim->table().Equals(interpreted->table()))
      << sim->table().DiffString(interpreted->table());
}

// random(), function inlining, vectors, aggregates, and nested control
// flow in one script: the VM's scalar opcodes must reproduce the
// interpreter's per-unit draw keys and aggregate results exactly.
TEST(VmLockstepTest, RandomAggregatesAndInliningStayLockstep) {
  const char* source = R"(
    aggregate Center(u) { select avg(e.posx) as cx, avg(e.posy) as cy
                          from E e where e.player != u.player; }
    aggregate Threat(u, r) { select count(*) as n from E e
                             where e.player != u.player and
                                   e.posx <= u.posx + r and
                                   e.posx >= u.posx - r; }
    action Push(u, amount) { update e where e.player != u.player
                             set damage += amount; }
    function strike(u, power) {
      let roll = random(1) mod 7;
      if roll >= power then perform Push(u, roll + power);
    }
    function main(u) {
      let c = Center(u);
      let d = (u.posx, u.posy) - c;
      let t = Threat(u, 3);
      if t > 2 or u.hp mod 2 = 0 then perform strike(u, d.x mod 5);
    }
  )";
  auto compiled = BuildCustom(source, true, 80);
  auto interpreted = BuildCustom(source, false, 80);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;
  for (int64_t tick = 0; tick < 20; ++tick) {
    ASSERT_TRUE(compiled->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(interpreted->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(compiled->table().Equals(interpreted->table()))
        << "diverged at tick " << tick << ":\n"
        << compiled->table().DiffString(interpreted->table());
  }
}

// The compiler's stated compile-time work is visible in the bytecode:
// folded constants land in the hoisted prologue, repeated attribute loads
// CSE to one instruction, and let-aliases cost nothing.
TEST(VmCompileTest, ConstantFoldingHoistingAndLoadCse) {
  const char* source = R"(
    action Tag(u, amount) { update e where e.player = u.player
                            set damage += amount; }
    function main(u) {
      let a = 2 * 3 + 4;
      let b = u.posx + u.posx + u.posx;
      perform Tag(u, a + b);
    }
  )";
  Schema schema = VmSchema();
  auto script = CompileScript(source, schema);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto prog = vm::CompileProgram(*script);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();

  // 2*3+4 folds to one hoisted constant (10).
  int32_t loads = 0;
  for (const auto& in : (*prog)->code) {
    if (in.op == vm::Op::kLoadAttr) ++loads;
  }
  EXPECT_EQ(loads, 1) << "u.posx should load once:\n" << (*prog)->Disassemble();
  EXPECT_GE((*prog)->num_hoisted, 1);
  bool has_ten = false;
  for (double c : (*prog)->consts) has_ten |= c == 10.0;
  EXPECT_TRUE(has_ten) << "2*3+4 was not folded:\n" << (*prog)->Disassemble();
  const std::string disasm = (*prog)->Disassemble();
  EXPECT_NE(disasm.find("hoisted"), std::string::npos) << disasm;
}

}  // namespace
}  // namespace sgl
