// Engine integration tests: phases, movement, mechanics, determinism.
#include <gtest/gtest.h>

#include "engine/phase.h"
#include "game/battle.h"

namespace sgl {
namespace {

TEST(Scenario, GridSideMatchesDensity) {
  ScenarioConfig config;
  config.num_units = 500;
  config.density = 0.01;
  // 500 units at 1% of cells -> 50000 cells -> side ~224.
  EXPECT_EQ(224, config.GridSide());
  config.density = 0.04;
  EXPECT_EQ(112, config.GridSide());
}

TEST(Scenario, BuildsDistinctPositionsAndArmies) {
  ScenarioConfig config;
  config.num_units = 300;
  config.seed = 5;
  auto table = BuildScenario(config);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const Schema& s = table->schema();
  AttrId posx = s.Find("posx"), posy = s.Find("posy"),
         player = s.Find("player");
  std::set<std::pair<int64_t, int64_t>> cells;
  int32_t players[2] = {0, 0};
  for (RowId r = 0; r < table->NumRows(); ++r) {
    cells.insert({static_cast<int64_t>(table->Get(r, posx)),
                  static_cast<int64_t>(table->Get(r, posy))});
    players[static_cast<int32_t>(table->Get(r, player))]++;
  }
  EXPECT_EQ(300u, cells.size());  // all distinct
  EXPECT_EQ(150, players[0]);
  EXPECT_EQ(150, players[1]);
}

TEST(Scenario, UnitMixFollowsFractions) {
  ScenarioConfig config;
  config.num_units = 2000;
  config.knight_fraction = 0.5;
  config.archer_fraction = 0.3;
  auto table = BuildScenario(config);
  ASSERT_TRUE(table.ok());
  AttrId ut = table->schema().Find("unittype");
  int32_t counts[3] = {0, 0, 0};
  for (RowId r = 0; r < table->NumRows(); ++r) {
    counts[static_cast<int32_t>(table->Get(r, ut))]++;
  }
  EXPECT_NEAR(1000, counts[0], 80);
  EXPECT_NEAR(600, counts[1], 80);
  EXPECT_NEAR(400, counts[2], 80);
}

TEST(BattleScript, CompilesAgainstBattleSchema) {
  auto script = CompileScript(BattleScriptSource(), BattleSchema());
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_GE(script->program.aggregates.size(), 10u);
  EXPECT_GE(script->program.actions.size(), 4u);
  EXPECT_GE(script->main_index, 0);
}

TEST(BattleEngine, RunsTicksAndKeepsInvariants) {
  ScenarioConfig config;
  config.num_units = 120;
  config.seed = 11;
  auto setup = MakeBattleSim(config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  Simulation& sim = *setup->sim;
  ASSERT_TRUE(sim.Run(20).ok());
  EXPECT_EQ(20, sim.tick_count());
  // Resurrection keeps population constant.
  EXPECT_EQ(120, sim.table().NumRows());
  const Schema& s = sim.table().schema();
  AttrId health = s.Find("health"), maxh = s.Find("maxhealth");
  AttrId posx = s.Find("posx"), posy = s.Find("posy");
  int64_t side = config.GridSide();
  for (RowId r = 0; r < sim.table().NumRows(); ++r) {
    double h = sim.table().Get(r, health);
    EXPECT_GT(h, 0.0);                           // dead were resurrected
    EXPECT_LE(h, sim.table().Get(r, maxh));      // heal capped
    EXPECT_GE(sim.table().Get(r, posx), 0.0);    // in bounds
    EXPECT_LT(sim.table().Get(r, posx), side);
    EXPECT_GE(sim.table().Get(r, posy), 0.0);
    EXPECT_LT(sim.table().Get(r, posy), side);
    // Positions stay on the integer grid.
    EXPECT_EQ(sim.table().Get(r, posx), std::floor(sim.table().Get(r, posx)));
  }
}

TEST(BattleEngine, CombatActuallyHappens) {
  ScenarioConfig config;
  config.num_units = 200;
  config.density = 0.05;  // tight grid: armies collide quickly
  config.seed = 3;
  auto setup = MakeBattleSim(config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  ASSERT_TRUE(setup->sim->Run(60).ok());
  EXPECT_GT(setup->mechanics->deaths(), 0) << "no unit ever died in 60 ticks";
}

TEST(BattleEngine, RemovalModeShrinksArmies) {
  ScenarioConfig config;
  config.num_units = 150;
  config.density = 0.06;
  config.seed = 9;
  auto setup =
      MakeBattleSim(config, EvaluatorMode::kIndexed, /*resurrect=*/false);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  ASSERT_TRUE(setup->sim->Run(80).ok());
  EXPECT_LT(setup->sim->table().NumRows(), 150);
}

TEST(BattleEngine, DeterministicAcrossRuns) {
  ScenarioConfig config;
  config.num_units = 80;
  config.seed = 21;
  auto a = MakeBattleSim(config, EvaluatorMode::kIndexed);
  auto b = MakeBattleSim(config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->sim->Run(15).ok());
  ASSERT_TRUE(b->sim->Run(15).ok());
  EXPECT_TRUE(a->sim->table().Equals(b->sim->table()))
      << a->sim->table().DiffString(b->sim->table());
}

TEST(BattleEngine, SeedChangesOutcome) {
  ScenarioConfig a_config;
  a_config.num_units = 80;
  a_config.seed = 1;
  ScenarioConfig b_config = a_config;
  b_config.seed = 2;
  auto a = MakeBattleSim(a_config, EvaluatorMode::kIndexed);
  auto b = MakeBattleSim(b_config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->sim->Run(5).ok());
  ASSERT_TRUE(b->sim->Run(5).ok());
  EXPECT_FALSE(a->sim->table().Equals(b->sim->table()));
}

TEST(BattleEngine, PhaseStatsAreRecorded) {
  ScenarioConfig config;
  config.num_units = 60;
  auto setup = MakeBattleSim(config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE(setup->sim->Run(3).ok());
  const PhaseStatsRegistry& stats = setup->sim->stats();
  for (const char* phase :
       {phase_names::kIndexBuild, phase_names::kDecisionAction,
        phase_names::kDeferredIndex, phase_names::kApply,
        phase_names::kMovement, phase_names::kMechanics}) {
    bool found = false;
    for (const auto& [name, s] : stats.stats()) {
      if (name == phase) {
        EXPECT_EQ(3, s.invocations()) << phase;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no stats slot for phase " << phase;
  }
}

TEST(BattleEngine, ExplainDescribesPlan) {
  ScenarioConfig config;
  config.num_units = 40;
  auto setup = MakeBattleSim(config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(setup.ok());
  std::string plan = setup->sim->DescribePlan();
  EXPECT_NE(std::string::npos, plan.find("divisible-range-tree"));
  EXPECT_NE(std::string::npos, plan.find("kd-nearest"));
  EXPECT_NE(std::string::npos, plan.find("minmax-range-tree"));
  EXPECT_NE(std::string::npos, plan.find("direct-key"));
  EXPECT_NE(std::string::npos, plan.find("area-of-effect"));
  // Multi-query sharing: the SIGHT box over enemies is probed by several
  // aggregates; at least one family must be shared.
  EXPECT_NE(std::string::npos, plan.find("[shared by"));
}

TEST(BattleEngine, NaiveModeAlsoRuns) {
  ScenarioConfig config;
  config.num_units = 50;
  auto setup = MakeBattleSim(config, EvaluatorMode::kNaive);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  ASSERT_TRUE(setup->sim->Run(5).ok());
  EXPECT_EQ(50, setup->sim->table().NumRows());
}

// The paper's core claim, as a correctness property: the indexed engine
// is an *optimization*, so naive and indexed simulations must agree
// exactly, tick for tick.
class Equivalence : public ::testing::TestWithParam<
                        std::tuple<int32_t, double, uint64_t>> {};

TEST_P(Equivalence, NaiveAndIndexedBitIdentical) {
  auto [units, density, seed] = GetParam();
  ScenarioConfig config;
  config.num_units = units;
  config.density = density;
  config.seed = seed;
  auto naive = MakeBattleSim(config, EvaluatorMode::kNaive);
  auto indexed = MakeBattleSim(config, EvaluatorMode::kIndexed);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  for (int tick = 0; tick < 12; ++tick) {
    ASSERT_TRUE(naive->sim->Tick().ok());
    ASSERT_TRUE(indexed->sim->Tick().ok());
    ASSERT_TRUE(naive->sim->table().Equals(indexed->sim->table()))
        << "diverged at tick " << tick << ": "
        << naive->sim->table().DiffString(indexed->sim->table());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, Equivalence,
    ::testing::Values(std::make_tuple(30, 0.02, 1),
                      std::make_tuple(80, 0.01, 2),
                      std::make_tuple(80, 0.08, 3),    // dense: heavy combat
                      std::make_tuple(150, 0.04, 4),
                      std::make_tuple(250, 0.01, 5),
                      std::make_tuple(250, 0.06, 6)));

}  // namespace
}  // namespace sgl
