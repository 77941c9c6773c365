// The non-negotiable contract of the src/exec/ subsystem, enforced here:
// for any seed, script set, evaluator mode and thread count, every tick is
// bit-identical to single-threaded execution. The stress world exercises
// the order-sensitive corners on purpose: kSum effects (fold-order
// sensitive in IEEE arithmetic), kSet effects with deliberate priority
// ties (tie-broken by larger value), kMin area effects batched through the
// deferred index, direct-key updates, scripts calling Random, and
// end-of-tick resurrection mechanics.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "game/battle.h"
#include "sgl/analyzer.h"
#include "util/rng.h"

namespace sgl {
namespace {

constexpr int64_t kGrid = 40;

// Two factions of spellcasters and brawlers. Every caster freezes its
// nearest foe with the SAME priority (1), so targets picked by several
// casters see genuine priority ties resolved by the larger mana value;
// everyone zaps with Random-rolled damage (kSum) and casters lay a
// min-combined sluggishness aura (deferred area-of-effect batch).
const char* kStormScript = R"SGL(
  const SIGHT = 18;
  const AURA = 5;

  aggregate NearestFoe(u) {
    select nearest(*) from E e
    where e.faction <> u.faction
      and e.posx >= u.posx - SIGHT and e.posx <= u.posx + SIGHT
      and e.posy >= u.posy - SIGHT and e.posy <= u.posy + SIGHT;
  }

  action Zap(u, target, dmg) {
    update e where e.key = target set damage += dmg;
  }
  action Freeze(u, target) {
    update e where e.key = target set freeze = u.mana priority 1;
  }
  action Sluggish(u) {
    update e where e.faction <> u.faction
      and e.posx >= u.posx - AURA and e.posx <= u.posx + AURA
      and e.posy >= u.posy - AURA and e.posy <= u.posy + AURA
      set slow min= 2;
  }
  action Move(u, dx, dy) {
    update e where e.key = u.key set movex += dx, movey += dy;
  }

  function main(u) {
    let foe = NearestFoe(u);
    if foe.found = 1 then {
      perform Zap(u, foe.key, 1 + random(1) mod 4);
      if u.mana > 0 then {
        perform Freeze(u, foe.key);
        perform Sluggish(u);
      }
      perform Move(u, foe.posx - u.posx, foe.posy - u.posy);
    }
    else
      perform Move(u, random(2) mod 5 - 2, random(3) mod 5 - 2);
  }
)SGL";

Schema StormSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("faction", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("mana", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("health", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("maxhealth", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("damage", CombineType::kSum).ok());
  EXPECT_TRUE(s.AddAttribute("slow", CombineType::kMin).ok());
  EXPECT_TRUE(s.AddAttribute("freeze", CombineType::kSet).ok());
  EXPECT_TRUE(s.AddAttribute("movex", CombineType::kSum).ok());
  EXPECT_TRUE(s.AddAttribute("movey", CombineType::kSum).ok());
  return s;
}

EnvironmentTable StormTable(int32_t per_faction, uint64_t seed) {
  Schema schema = StormSchema();
  EnvironmentTable table(schema);
  Xoshiro256 rng(seed);
  std::set<std::pair<int64_t, int64_t>> used;
  auto place = [&]() {
    while (true) {
      int64_t x = rng.NextBounded(kGrid), y = rng.NextBounded(kGrid);
      if (used.insert({x, y}).second) return std::make_pair(x, y);
    }
  };
  for (int32_t f = 0; f < 2; ++f) {
    for (int32_t i = 0; i < per_faction; ++i) {
      auto [x, y] = place();
      // Half of each faction are casters; mana in {1..4} so tied-priority
      // freezes carry different values (the tie-break under test).
      double mana = i % 2 == 0 ? double(1 + rng.NextBounded(4)) : 0.0;
      EXPECT_TRUE(table
                      .AddRow({double(f), double(x), double(y), mana, 30, 30,
                               0, 0, 0, 0, 0})
                      .ok());
    }
  }
  return table;
}

Result<std::unique_ptr<Simulation>> MakeStorm(EvaluatorMode mode,
                                              uint64_t seed,
                                              int32_t threads) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.seed = seed;
  config.threads = threads;
  config.grid_width = kGrid;
  config.grid_height = kGrid;
  config.step_per_tick = 2.0;

  SGL_ASSIGN_OR_RETURN(Script script,
                       CompileScript(kStormScript, StormSchema()));
  SimulationBuilder builder;
  builder.SetTable(StormTable(30, seed))
      .SetConfig(config)
      .AddScript("storm", std::move(script));
  builder.OnApplyEffects([](EnvironmentTable* table, const EffectBuffer& buf,
                            const TickRandom&) {
    const Schema& s = table->schema();
    AttrId health = s.Find("health"), damage = s.Find("damage");
    AttrId freeze = s.Find("freeze"), movex = s.Find("movex");
    AttrId movey = s.Find("movey");
    for (RowId r = 0; r < table->NumRows(); ++r) {
      table->Set(r, health, table->Get(r, health) - table->Get(r, damage));
      if (buf.HasSet(r, freeze)) {
        // A frozen unit's movement intent is overridden by the winning
        // freeze value (deliberately consumes the tie-broken result).
        double v = table->Get(r, freeze);
        table->Set(r, movex, v);
        table->Set(r, movey, -v);
      }
    }
    return Status::OK();
  });
  builder.OnEndTick([](EnvironmentTable* table, const TickRandom& rnd) {
    const Schema& s = table->schema();
    AttrId health = s.Find("health"), maxh = s.Find("maxhealth");
    AttrId posx = s.Find("posx"), posy = s.Find("posy");
    for (RowId r = 0; r < table->NumRows(); ++r) {
      if (table->Get(r, health) > 0.0) continue;
      int64_t key = table->KeyAt(r);
      table->Set(r, posx, double(rnd.DrawBounded(key, 901, kGrid)));
      table->Set(r, posy, double(rnd.DrawBounded(key, 902, kGrid)));
      table->Set(r, health, table->Get(r, maxh));
    }
    return Status::OK();
  });
  return builder.Build();
}

/// Advance both simulations in lockstep, demanding bit-equal tables after
/// every tick (divergence diagnostics point at the first bad tick).
void ExpectLockstepEqual(Simulation* reference, Simulation* candidate,
                         int64_t ticks, const std::string& label) {
  for (int64_t tick = 0; tick < ticks; ++tick) {
    ASSERT_TRUE(reference->Tick().ok()) << label << " tick " << tick;
    ASSERT_TRUE(candidate->Tick().ok()) << label << " tick " << tick;
    ASSERT_TRUE(reference->table().Equals(candidate->table()))
        << label << " diverged at tick " << tick << ": "
        << reference->table().DiffString(candidate->table());
  }
}

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

// The acceptance-criteria matrix: Threads(1) vs Threads(N) for
// N in {2, 4, 8}, both evaluators, >= 100 ticks, multiple seeds.
TEST_P(ParallelDeterminism, StormBitExactAcrossThreadCounts) {
  const uint64_t seed = GetParam();
  for (EvaluatorMode mode : {EvaluatorMode::kNaive, EvaluatorMode::kIndexed}) {
    for (int32_t threads : {2, 4, 8}) {
      auto reference = MakeStorm(mode, seed, 1);
      auto parallel = MakeStorm(mode, seed, threads);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      std::string label =
          (mode == EvaluatorMode::kNaive ? "naive" : "indexed");
      label += " x" + std::to_string(threads);
      ExpectLockstepEqual(reference->get(), parallel->get(), 100, label);
    }
  }
}

// Cross-evaluator, cross-thread-count: sequential naive vs parallel
// indexed — the strongest statement of "the optimizations change nothing".
TEST_P(ParallelDeterminism, NaiveSequentialVsIndexedParallelBitExact) {
  const uint64_t seed = GetParam();
  auto naive = MakeStorm(EvaluatorMode::kNaive, seed, 1);
  auto parallel_indexed = MakeStorm(EvaluatorMode::kIndexed, seed, 4);
  ASSERT_TRUE(naive.ok() && parallel_indexed.ok());
  ExpectLockstepEqual(naive->get(), parallel_indexed->get(), 100,
                      "naive-1t vs indexed-4t");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Values(11, 23, 47));

// The full battle workload (ten aggregates per unit, direct-key attacks,
// deferred healing auras, deaths + resurrection) through the parallel
// pipeline: bit-exact vs single-threaded in both evaluator modes.
TEST(ParallelBattle, BitExactAcrossThreadCounts) {
  ScenarioConfig scenario;
  scenario.num_units = 150;
  scenario.density = 0.03;
  scenario.seed = 5;
  for (int32_t threads : {2, 4}) {
    SimulationConfig reference_config;
    reference_config.threads = 1;
    SimulationConfig parallel_config;
    parallel_config.threads = threads;
    auto reference = MakeBattleSimWithConfig(scenario, reference_config);
    auto parallel = MakeBattleSimWithConfig(scenario, parallel_config);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    for (int64_t tick = 0; tick < 40; ++tick) {
      ASSERT_TRUE(reference->sim->Tick().ok());
      ASSERT_TRUE(parallel->sim->Tick().ok());
      ASSERT_TRUE(reference->sim->table().Equals(parallel->sim->table()))
          << "threads=" << threads << " diverged at tick " << tick << ": "
          << reference->sim->table().DiffString(parallel->sim->table());
    }
    // The parallel run actually fanned out and reported per-worker stats.
    const PhaseStats* decision =
        parallel->sim->stats().Find(phase_names::kDecisionAction);
    ASSERT_NE(nullptr, decision);
    EXPECT_GT(decision->workers(), 1) << "threads=" << threads;
    EXPECT_GT(decision->max_worker_ns(), 0) << "threads=" << threads;
  }
}

// Checkpoint/RestoreFrom replays identically under a multi-threaded
// pipeline.
TEST(ParallelBattle, SnapshotReplayIsDeterministicWithThreads) {
  auto sim = MakeStorm(EvaluatorMode::kIndexed, 99, 4);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE((*sim)->Run(20).ok());
  const std::string dir = ::testing::TempDir() + "/parallel_ckpt";
  std::filesystem::remove_all(dir);  // no world left by an earlier run
  ASSERT_TRUE((*sim)->Checkpoint(dir).ok());
  ASSERT_TRUE((*sim)->Run(15).ok());
  EnvironmentTable first = (*sim)->table().Clone();
  ASSERT_TRUE((*sim)->RestoreFrom(dir).ok());
  ASSERT_TRUE((*sim)->Run(15).ok());
  EXPECT_TRUE((*sim)->table().Equals(first))
      << (*sim)->table().DiffString(first);
}

TEST(SimulationBuilderThreads, AutoDetectResolvesToHardware) {
  auto sim = MakeStorm(EvaluatorMode::kIndexed, 3, /*threads=*/0);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_GE((*sim)->threads(), 1);
  EXPECT_EQ((*sim)->config().threads, (*sim)->threads());
  ASSERT_TRUE((*sim)->Run(3).ok());
}

TEST(SimulationBuilderThreads, NegativeThreadCountRejected) {
  auto sim = MakeStorm(EvaluatorMode::kIndexed, 3, /*threads=*/-2);
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, sim.status().code());
}

TEST(SimulationBuilderThreads, ExplainSurfacesThreadCount) {
  auto sim = MakeStorm(EvaluatorMode::kIndexed, 3, 4);
  ASSERT_TRUE(sim.ok());
  std::string explain = (*sim)->Explain();
  EXPECT_NE(std::string::npos, explain.find("execution: 4 threads"));
  auto single = MakeStorm(EvaluatorMode::kIndexed, 3, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_NE(std::string::npos,
            (*single)->Explain().find("execution: 1 thread"));
}

}  // namespace
}  // namespace sgl
