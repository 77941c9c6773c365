// Simulation facade tests: the composable phase pipeline, multi-script
// sessions, owned/function mechanics, stats, and Checkpoint/RestoreFrom.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "sgl/analyzer.h"
#include "storage/world_store.h"

namespace sgl {
namespace {

// ------------------------------------------------------------------------
// A two-species farm: wolves hunt (direct-key bites, kd-tree nearest
// probes), sheep flee and cast a calming area-of-effect aura (deferred
// max-combine action). Two scripts — one per species — dispatched by the
// `species` attribute; all arithmetic integral so naive and indexed modes
// must agree bit for bit.

constexpr double kWolf = 0.0;
constexpr double kSheep = 1.0;

const char* kWolfScript = R"SGL(
  const SHEEP = 1;
  const BITE_RANGE = 2;
  const SIGHT = 24;

  aggregate NearestPrey(u) {
    select nearest(*) from E e
    where e.species = SHEEP
      and e.posx >= u.posx - SIGHT and e.posx <= u.posx + SIGHT
      and e.posy >= u.posy - SIGHT and e.posy <= u.posy + SIGHT;
  }

  action Bite(u, target, dmg) {
    update e where e.key = target set damage += dmg;
  }
  action Move(u, dx, dy) {
    update e where e.key = u.key set movex += dx, movey += dy;
  }

  function main(u) {
    let prey = NearestPrey(u);
    if prey.found = 1 and prey.dist2 <= BITE_RANGE * BITE_RANGE then
      perform Bite(u, prey.key, 2 + random(1) mod 3);
    else if prey.found = 1 then
      perform Move(u, prey.posx - u.posx, prey.posy - u.posy);
    else
      perform Move(u, random(2) mod 3 - 1, random(3) mod 3 - 1);
  }
)SGL";

const char* kSheepScript = R"SGL(
  const WOLF = 0;
  const SHEEP = 1;
  const SIGHT = 16;
  const AURA = 6;

  aggregate NearestWolf(u) {
    select nearest(*) from E e
    where e.species = WOLF
      and e.posx >= u.posx - SIGHT and e.posx <= u.posx + SIGHT
      and e.posy >= u.posy - SIGHT and e.posy <= u.posy + SIGHT;
  }
  aggregate FlockNear(u) {
    select count(*) from E e
    where e.species = SHEEP and e.key <> u.key
      and e.posx >= u.posx - AURA and e.posx <= u.posx + AURA
      and e.posy >= u.posy - AURA and e.posy <= u.posy + AURA;
  }

  action Flee(u, dx, dy) {
    update e where e.key = u.key set movex += dx, movey += dy;
  }
  action CalmAura(u) {
    update e where e.species = SHEEP
      and e.posx >= u.posx - AURA and e.posx <= u.posx + AURA
      and e.posy >= u.posy - AURA and e.posy <= u.posy + AURA
      set heal max= 1;
  }

  function main(u) {
    let hunter = NearestWolf(u);
    if hunter.found = 1 then {
      let away = (u.posx, u.posy) - (hunter.posx, hunter.posy);
      perform Flee(u, away.x, away.y);
    }
    else if FlockNear(u) >= 2 then
      perform CalmAura(u);
  }
)SGL";

Schema FarmSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("species", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("health", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("maxhealth", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("damage", CombineType::kSum).ok());
  EXPECT_TRUE(s.AddAttribute("heal", CombineType::kMax).ok());
  EXPECT_TRUE(s.AddAttribute("movex", CombineType::kSum).ok());
  EXPECT_TRUE(s.AddAttribute("movey", CombineType::kSum).ok());
  return s;
}

constexpr int64_t kGrid = 48;

EnvironmentTable FarmTable(int32_t wolves, int32_t sheep, uint64_t seed) {
  Schema schema = FarmSchema();
  EnvironmentTable table(schema);
  Xoshiro256 rng(seed);
  std::set<std::pair<int64_t, int64_t>> used;
  auto place = [&]() {
    while (true) {
      int64_t x = rng.NextBounded(kGrid), y = rng.NextBounded(kGrid);
      if (used.insert({x, y}).second) return std::make_pair(x, y);
    }
  };
  for (int32_t i = 0; i < wolves; ++i) {
    auto [x, y] = place();
    //                 species          posx       posy        hp  max d h mx my
    EXPECT_TRUE(table
                    .AddRow({kWolf, double(x), double(y), 20, 20, 0,
                             0, 0, 0})
                    .ok());
  }
  for (int32_t i = 0; i < sheep; ++i) {
    auto [x, y] = place();
    EXPECT_TRUE(table
                    .AddRow({kSheep, double(x), double(y), 8, 8, 0,
                             0, 0, 0})
                    .ok());
  }
  return table;
}

/// Farm mechanics via function hooks: heal/damage resolution, then
/// deterministic resurrection so the hunt never runs out of prey.
void RegisterFarmMechanics(SimulationBuilder* builder) {
  builder->OnApplyEffects([](EnvironmentTable* table, const EffectBuffer&,
                             const TickRandom&) {
    const Schema& s = table->schema();
    AttrId health = s.Find("health"), maxh = s.Find("maxhealth");
    AttrId damage = s.Find("damage"), heal = s.Find("heal");
    for (RowId r = 0; r < table->NumRows(); ++r) {
      double h = table->Get(r, health) - table->Get(r, damage) +
                 table->Get(r, heal);
      table->Set(r, health, std::min(h, table->Get(r, maxh)));
    }
    return Status::OK();
  });
  builder->OnEndTick([](EnvironmentTable* table, const TickRandom& rnd) {
    const Schema& s = table->schema();
    AttrId health = s.Find("health"), maxh = s.Find("maxhealth");
    AttrId posx = s.Find("posx"), posy = s.Find("posy");
    for (RowId r = 0; r < table->NumRows(); ++r) {
      if (table->Get(r, health) > 0.0) continue;
      int64_t key = table->KeyAt(r);
      table->Set(r, posx, double(rnd.DrawBounded(key, 501, kGrid)));
      table->Set(r, posy, double(rnd.DrawBounded(key, 502, kGrid)));
      table->Set(r, health, table->Get(r, maxh));
    }
    return Status::OK();
  });
}

Result<std::unique_ptr<Simulation>> MakeFarm(EvaluatorMode mode, uint64_t seed,
                                             SimulationBuilder* out = nullptr) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.seed = seed;
  config.grid_width = kGrid;
  config.grid_height = kGrid;
  config.step_per_tick = 2.0;

  auto wolf = CompileScript(kWolfScript, FarmSchema());
  auto sheep = CompileScript(kSheepScript, FarmSchema());
  if (!wolf.ok()) return wolf.status();
  if (!sheep.ok()) return sheep.status();

  SimulationBuilder local;
  SimulationBuilder& builder = out != nullptr ? *out : local;
  builder.SetTable(FarmTable(12, 25, seed))
      .SetConfig(config)
      .DispatchBy("species")
      .AddScript("wolves", wolf.MoveValue(), kWolf)
      .AddScript("sheep", sheep.MoveValue(), kSheep);
  RegisterFarmMechanics(&builder);
  return builder.Build();
}

// ------------------------------------------------------------------------

TEST(SchemaRequire, FindsAndFailsLoudly) {
  Schema s = FarmSchema();
  auto ok = s.Require("health");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(s.Find("health"), *ok);
  auto missing = s.Require("mana");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, missing.status().code());
  EXPECT_NE(std::string::npos, missing.status().message().find("mana"));
}

TEST(SimulationBuilder, RejectsMissingMovementAttribute) {
  auto script = CompileScript(kWolfScript, FarmSchema());
  ASSERT_TRUE(script.ok());
  SimulationConfig config;
  config.move_x_attr = "no_such_attr";
  SimulationBuilder builder;
  builder.SetTable(FarmTable(2, 2, 1))
      .SetConfig(config)
      .AddScript("wolves", script.MoveValue());
  auto sim = builder.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, sim.status().code());
  EXPECT_NE(std::string::npos, sim.status().message().find("no_such_attr"));
}

TEST(SimulationBuilder, RejectsMultipleScriptsWithoutDispatch) {
  auto a = CompileScript(kWolfScript, FarmSchema());
  auto b = CompileScript(kSheepScript, FarmSchema());
  ASSERT_TRUE(a.ok() && b.ok());
  SimulationBuilder builder;
  builder.SetTable(FarmTable(2, 2, 1))
      .AddScript("a", a.MoveValue())
      .AddScript("b", b.MoveValue());
  auto sim = builder.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, sim.status().code());
}

TEST(SimulationBuilder, RejectsDuplicateDispatchValues) {
  auto a = CompileScript(kWolfScript, FarmSchema());
  auto b = CompileScript(kSheepScript, FarmSchema());
  ASSERT_TRUE(a.ok() && b.ok());
  SimulationBuilder builder;
  builder.SetTable(FarmTable(2, 2, 1))
      .DispatchBy("species")
      .AddScript("a", a.MoveValue(), 0.0)
      .AddScript("b", b.MoveValue(), 0.0);
  auto sim = builder.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, sim.status().code());
}

TEST(SimulationBuilder, RejectsSchemaMismatch) {
  Schema other;
  ASSERT_TRUE(other.AddAttribute("species", CombineType::kConst).ok());
  ASSERT_TRUE(other.AddAttribute("posx", CombineType::kConst).ok());
  ASSERT_TRUE(other.AddAttribute("posy", CombineType::kConst).ok());
  ASSERT_TRUE(other.AddAttribute("movex", CombineType::kSum).ok());
  ASSERT_TRUE(other.AddAttribute("movey", CombineType::kSum).ok());
  const char* tiny = R"SGL(
    action Move(u, dx, dy) {
      update e where e.key = u.key set movex += dx, movey += dy;
    }
    function main(u) { perform Move(u, 1, 0); }
  )SGL";
  auto script = CompileScript(tiny, other);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  SimulationBuilder builder;
  builder.SetTable(FarmTable(2, 2, 1)).AddScript("tiny", script.MoveValue());
  auto sim = builder.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, sim.status().code());
}

TEST(Simulation, DefaultPipelineOrder) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 7);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  std::vector<std::string> expected = {
      phase_names::kIndexBuild, phase_names::kDecisionAction,
      phase_names::kDeferredIndex, phase_names::kApply,
      phase_names::kMovement, phase_names::kMechanics};
  EXPECT_EQ(expected, (*sim)->PhaseNames());
  EXPECT_EQ(2, (*sim)->NumScripts());
}

// The paper's core claim through the new facade: the indexed engine is an
// optimization, so a two-script battle must be bit-identical between the
// naive and indexed evaluators, tick for tick, for 100 ticks.
TEST(Simulation, TwoScriptNaiveAndIndexedBitIdentical100Ticks) {
  auto naive = MakeFarm(EvaluatorMode::kNaive, 2026);
  auto indexed = MakeFarm(EvaluatorMode::kIndexed, 2026);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  for (int tick = 0; tick < 100; ++tick) {
    ASSERT_TRUE((*naive)->Tick().ok());
    ASSERT_TRUE((*indexed)->Tick().ok());
    ASSERT_TRUE((*naive)->table().Equals((*indexed)->table()))
        << "diverged at tick " << tick << ": "
        << (*naive)->table().DiffString((*indexed)->table());
  }
  // Both species actually acted: some sheep took damage (wolf script) and
  // the calming aura fired (sheep script's deferred AOE action).
  const PhaseStats* decision =
      (*indexed)->stats().Find(phase_names::kDecisionAction);
  ASSERT_NE(nullptr, decision);
  EXPECT_EQ(100 * (*indexed)->table().NumRows(), decision->rows_scanned());
  EXPECT_GT(decision->index_probes(), 0);
}

TEST(Simulation, MultiScriptDispatchRunsTheRightScript) {
  // Wolves-only world: the sheep script must never run, so no heal effect
  // ever appears; wolves still wander via their own script.
  auto wolf = CompileScript(kWolfScript, FarmSchema());
  auto sheep = CompileScript(kSheepScript, FarmSchema());
  ASSERT_TRUE(wolf.ok() && sheep.ok());
  SimulationConfig config;
  config.grid_width = kGrid;
  config.grid_height = kGrid;
  SimulationBuilder builder;
  builder.SetTable(FarmTable(6, 0, 3))
      .SetConfig(config)
      .DispatchBy("species")
      .AddScript("wolves", wolf.MoveValue(), kWolf)
      .AddScript("sheep", sheep.MoveValue(), kSheep);
  auto sim = builder.Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE((*sim)->Run(5).ok());
  const EnvironmentTable& t = (*sim)->table();
  AttrId heal = t.schema().Find("heal");
  for (RowId r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(0.0, t.Get(r, heal));
  }
}

TEST(Simulation, UnmatchedDispatchValueFailsWithoutDefault) {
  auto wolf = CompileScript(kWolfScript, FarmSchema());
  ASSERT_TRUE(wolf.ok());
  EnvironmentTable table = FarmTable(1, 1, 5);  // has a kSheep row
  SimulationBuilder builder;
  builder.SetTable(std::move(table))
      .DispatchBy("species")
      .AddScript("wolves", wolf.MoveValue(), kWolf);
  auto sim = builder.Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  Status st = (*sim)->Tick();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kExecutionError, st.code());
}

TEST(Simulation, UnmatchedDispatchValueFallsBackToDefault) {
  auto wolf = CompileScript(kWolfScript, FarmSchema());
  auto sheep = CompileScript(kSheepScript, FarmSchema());
  ASSERT_TRUE(wolf.ok() && sheep.ok());
  SimulationBuilder builder;
  builder.SetTable(FarmTable(1, 1, 5))
      .DispatchBy("species")
      .AddScript("wolves", wolf.MoveValue(), kWolf)
      .AddScript("everyone-else", sheep.MoveValue());  // default
  auto sim = builder.Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_TRUE((*sim)->Tick().ok());
}

/// A user phase that watches the world each tick.
class CensusPhase : public TickPhase {
 public:
  explicit CensusPhase(std::vector<int64_t>* ticks_seen,
                       std::vector<int32_t>* rows_seen)
      : TickPhase("census"), ticks_seen_(ticks_seen), rows_seen_(rows_seen) {}

  Status Run(TickContext* ctx) override {
    ticks_seen_->push_back(ctx->tick);
    rows_seen_->push_back(ctx->table->NumRows());
    ctx->stats->AddRowsScanned(ctx->table->NumRows());
    return Status::OK();
  }

 private:
  std::vector<int64_t>* ticks_seen_;
  std::vector<int32_t>* rows_seen_;
};

TEST(Simulation, CustomPhaseObservesEveryTick) {
  std::vector<int64_t> ticks_seen;
  std::vector<int32_t> rows_seen;
  SimulationBuilder builder;
  builder.InsertPhaseAfter(
      phase_names::kApply,
      std::make_unique<CensusPhase>(&ticks_seen, &rows_seen));
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 9, &builder);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  // The custom phase sits right after apply.
  std::vector<std::string> names = (*sim)->PhaseNames();
  auto it = std::find(names.begin(), names.end(), "census");
  ASSERT_NE(names.end(), it);
  EXPECT_EQ(phase_names::kApply, *(it - 1));

  ASSERT_TRUE((*sim)->Run(7).ok());
  ASSERT_EQ(7u, ticks_seen.size());
  for (int64_t t = 0; t < 7; ++t) EXPECT_EQ(t, ticks_seen[t]);
  for (int32_t rows : rows_seen) EXPECT_EQ(37, rows);  // 12 wolves + 25 sheep

  const PhaseStats* census = (*sim)->stats().Find("census");
  ASSERT_NE(nullptr, census);
  EXPECT_EQ(7, census->invocations());
  EXPECT_EQ(7 * 37, census->rows_scanned());
}

TEST(Simulation, CustomPhaseDoesNotPerturbDeterminism) {
  std::vector<int64_t> ticks_seen;
  std::vector<int32_t> rows_seen;
  SimulationBuilder builder;
  builder.AddPhase(std::make_unique<CensusPhase>(&ticks_seen, &rows_seen));
  auto with_phase = MakeFarm(EvaluatorMode::kIndexed, 13, &builder);
  auto without = MakeFarm(EvaluatorMode::kIndexed, 13);
  ASSERT_TRUE(with_phase.ok() && without.ok());
  ASSERT_TRUE((*with_phase)->Run(20).ok());
  ASSERT_TRUE((*without)->Run(20).ok());
  EXPECT_TRUE((*with_phase)->table().Equals((*without)->table()))
      << (*with_phase)->table().DiffString((*without)->table());
}

TEST(Simulation, DisableMovementFreezesPositions) {
  SimulationBuilder builder;
  builder.DisablePhase(phase_names::kMovement);
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 17, &builder);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  const EnvironmentTable before = (*sim)->table().Clone();
  ASSERT_TRUE((*sim)->Run(5).ok());
  const EnvironmentTable& after = (*sim)->table();
  AttrId posx = after.schema().Find("posx"), posy = after.schema().Find("posy");
  bool any_resurrected = false;
  for (RowId r = 0; r < after.NumRows(); ++r) {
    // Positions only change through resurrection (full health afterwards).
    if (after.Get(r, posx) != before.Get(r, posx) ||
        after.Get(r, posy) != before.Get(r, posy)) {
      any_resurrected = true;
    }
  }
  // With nobody moving, wolves rarely reach prey in 5 ticks; whether or
  // not anyone died, the movement phase itself must not have run.
  EXPECT_EQ(nullptr, (*sim)->stats().Find(phase_names::kMovement));
  (void)any_resurrected;
}

TEST(Simulation, SetPhaseOrderReordersPipeline) {
  SimulationBuilder builder;
  builder.SetPhaseOrder({phase_names::kIndexBuild,
                         phase_names::kDecisionAction,
                         phase_names::kDeferredIndex, phase_names::kApply,
                         phase_names::kMechanics, phase_names::kMovement});
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 19, &builder);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  std::vector<std::string> names = (*sim)->PhaseNames();
  EXPECT_EQ(phase_names::kMovement, names.back());
  ASSERT_TRUE((*sim)->Run(3).ok());
}

// A checkpoint directory with nothing left in it from an earlier run.
std::string FreshCheckpointDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Simulation, CheckpointRestoreReplaysDeterministically) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 4242);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE((*sim)->Run(30).ok());

  const std::string dir = FreshCheckpointDir("sim_ckpt");
  ASSERT_TRUE((*sim)->Checkpoint(dir).ok());
  const EnvironmentTable at_checkpoint = (*sim)->table().Clone();

  ASSERT_TRUE((*sim)->Run(20).ok());
  const EnvironmentTable first_run = (*sim)->table().Clone();
  EXPECT_FALSE(first_run.Equals(at_checkpoint));  // the world moved on

  ASSERT_TRUE((*sim)->RestoreFrom(dir).ok());
  EXPECT_EQ(30, (*sim)->tick_count());
  EXPECT_TRUE((*sim)->table().Equals(at_checkpoint));

  ASSERT_TRUE((*sim)->Run(20).ok());
  EXPECT_EQ(50, (*sim)->tick_count());
  EXPECT_TRUE((*sim)->table().Equals(first_run))
      << "replay diverged: " << (*sim)->table().DiffString(first_run);
}

/// A fresh, empty checkpoint directory under the test tmpdir.
TEST(Simulation, RestoreRejectsForeignSchema) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 23);
  ASSERT_TRUE(sim.ok());
  // Plant a world image whose schema names a different world.
  Schema other;
  ASSERT_TRUE(other.AddAttribute("something", CombineType::kConst).ok());
  const std::string dir = FreshCheckpointDir("foreign_ckpt");
  {
    StorageConfig config;
    config.path = dir;
    auto store = storage::WorldStore::Open(config, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Checkpoint(EnvironmentTable(other), 0).ok());
  }
  Status st = (*sim)->RestoreFrom(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
}

TEST(Simulation, RestoreFromMissingDirIsNotFoundAndCreatesNothing) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 23);
  ASSERT_TRUE(sim.ok());
  const std::string dir = FreshCheckpointDir("no_such_ckpt");
  EXPECT_EQ(StatusCode::kNotFound, (*sim)->RestoreFrom(dir).code());
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Simulation, RestoreRefusesARetiredSnapshotFile) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 23);
  ASSERT_TRUE(sim.ok());
  const std::string dir = FreshCheckpointDir("legacy_ckpt");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/snapshot.sgl", std::ios::binary);
    out << "SGLSNP";
  }
  Status st = (*sim)->RestoreFrom(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos, st.ToString().find("snapshot.sgl"))
      << st.ToString();
  // Refusing it opened no store: the directory holds only the old file.
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.sgl"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/pages.sgl"));
}

TEST(Simulation, RestoreRejectsATickTheImageDoesNotHold) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 31);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->Run(6).ok());
  const std::string dir = FreshCheckpointDir("tick_ckpt");
  ASSERT_TRUE((*sim)->Checkpoint(dir).ok());
  ASSERT_TRUE((*sim)->Run(2).ok());
  for (int64_t tick : {0, 5, 7}) {
    EXPECT_EQ(StatusCode::kInvalidArgument,
              (*sim)->RestoreFrom(dir, tick).code())
        << "tick " << tick;
  }
  ASSERT_TRUE((*sim)->RestoreFrom(dir, 6).ok());
  EXPECT_EQ(6, (*sim)->tick_count());
}

TEST(Simulation, ExplainCoversAllScripts) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 29);
  ASSERT_TRUE(sim.ok());
  std::string explain = (*sim)->Explain();
  EXPECT_NE(std::string::npos, explain.find("script 'wolves'"));
  EXPECT_NE(std::string::npos, explain.find("script 'sheep'"));
  EXPECT_NE(std::string::npos, explain.find("kd-nearest"));
  EXPECT_NE(std::string::npos, explain.find("area-of-effect"));
  EXPECT_NE(std::string::npos, explain.find("logical plan"));
}

TEST(Simulation, OwnedMechanicsViaSetMechanics) {
  // The same farm with mechanics as an owned GameMechanics object instead
  // of hooks; results must match the hook-registered build exactly.
  class FarmMechanics : public GameMechanics {
   public:
    Status ApplyEffects(EnvironmentTable* table, const EffectBuffer&,
                        const TickRandom&) override {
      const Schema& s = table->schema();
      AttrId health = s.Find("health"), maxh = s.Find("maxhealth");
      AttrId damage = s.Find("damage"), heal = s.Find("heal");
      for (RowId r = 0; r < table->NumRows(); ++r) {
        double h = table->Get(r, health) - table->Get(r, damage) +
                   table->Get(r, heal);
        table->Set(r, health, std::min(h, table->Get(r, maxh)));
      }
      return Status::OK();
    }
    Status EndTick(EnvironmentTable* table, const TickRandom& rnd) override {
      const Schema& s = table->schema();
      AttrId health = s.Find("health"), maxh = s.Find("maxhealth");
      AttrId posx = s.Find("posx"), posy = s.Find("posy");
      for (RowId r = 0; r < table->NumRows(); ++r) {
        if (table->Get(r, health) > 0.0) continue;
        int64_t key = table->KeyAt(r);
        table->Set(r, posx, double(rnd.DrawBounded(key, 501, kGrid)));
        table->Set(r, posy, double(rnd.DrawBounded(key, 502, kGrid)));
        table->Set(r, health, table->Get(r, maxh));
      }
      return Status::OK();
    }
  };

  auto wolf = CompileScript(kWolfScript, FarmSchema());
  auto sheep = CompileScript(kSheepScript, FarmSchema());
  ASSERT_TRUE(wolf.ok() && sheep.ok());
  SimulationConfig config;
  config.seed = 2026;
  config.grid_width = kGrid;
  config.grid_height = kGrid;
  config.step_per_tick = 2.0;
  SimulationBuilder builder;
  builder.SetTable(FarmTable(12, 25, 2026))
      .SetConfig(config)
      .DispatchBy("species")
      .AddScript("wolves", wolf.MoveValue(), kWolf)
      .AddScript("sheep", sheep.MoveValue(), kSheep)
      .SetMechanics(std::make_unique<FarmMechanics>());
  auto owned = builder.Build();
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();

  auto hooks = MakeFarm(EvaluatorMode::kIndexed, 2026);
  ASSERT_TRUE(hooks.ok());
  ASSERT_TRUE((*owned)->Run(25).ok());
  ASSERT_TRUE((*hooks)->Run(25).ok());
  EXPECT_TRUE((*owned)->table().Equals((*hooks)->table()))
      << (*owned)->table().DiffString((*hooks)->table());
}

TEST(Simulation, StatsRecordEveryBuiltInPhase) {
  auto sim = MakeFarm(EvaluatorMode::kIndexed, 31);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->Run(4).ok());
  for (const char* name :
       {phase_names::kIndexBuild, phase_names::kDecisionAction,
        phase_names::kDeferredIndex, phase_names::kApply,
        phase_names::kMovement, phase_names::kMechanics}) {
    const PhaseStats* stats = (*sim)->stats().Find(name);
    ASSERT_NE(nullptr, stats) << name;
    EXPECT_EQ(4, stats->invocations()) << name;
  }
  // The registry renders in pipeline order.
  std::string rendered = (*sim)->stats().ToString();
  EXPECT_LT(rendered.find(phase_names::kIndexBuild),
            rendered.find(phase_names::kMechanics));
}

}  // namespace
}  // namespace sgl
