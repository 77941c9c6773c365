// Adaptive-evaluator tests: the cost-based per-family strategy choice
// (src/opt/cost.h, src/opt/adaptive_provider.h) must never change what a
// simulation computes — only how. Every registered scenario runs 50
// ticks in lockstep under adaptive {1, 4}-thread configurations against
// the naive reference; a forced-churn configuration pins every divisible
// family to the incremental range-tree path and must still match; and
// the range-tree delta overlay is checked directly against from-scratch
// rebuilds.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/simulation.h"
#include "geom/range_tree.h"
#include "opt/adaptive_provider.h"
#include "opt/cost.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace sgl {
namespace {

constexpr int64_t kTicks = 50;

ScenarioParams SmallParams() {
  ScenarioParams params;
  params.units = 150;
  params.density = 0.02;
  params.seed = 11;
  return params;
}

std::unique_ptr<Simulation> BuildOrDie(const std::string& name,
                                       const ScenarioParams& params,
                                       EvaluatorMode mode, int32_t threads) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = threads;
  auto sim = ScenarioRegistry::Global().BuildSimulation(name, params, config);
  EXPECT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

/// Pin every session's adaptive provider to `choice` (nullptr resets).
void ForceChoice(Simulation* sim, const PhysicalChoice* choice) {
  for (auto& session : sim->sessions()) {
    if (session->provider == nullptr) continue;
    static_cast<AdaptiveAggregateProvider*>(session->provider.get())
        ->ForceChoiceForTest(choice);
  }
}

// ------------------------------------------------------------- cost model

TEST(CostModelTest, ColdFamilyWithFewProbesScans) {
  CostModel model;
  FamilyCostInputs in;
  in.rows = 10000;
  in.expected_probes = 2;  // two probes cannot amortize a 10k-row build
  in.build_passes = 3;
  EXPECT_EQ(model.Choose(in).choice, PhysicalChoice::kScan);
}

TEST(CostModelTest, HotFamilyRebuilds) {
  CostModel model;
  FamilyCostInputs in;
  in.rows = 10000;
  in.expected_probes = 10000;  // every unit probes: index pays for itself
  in.build_passes = 3;
  EXPECT_EQ(model.Choose(in).choice, PhysicalChoice::kRebuild);
}

TEST(CostModelTest, LowChurnDivisibleFamilyGoesIncremental) {
  CostModel model;
  FamilyCostInputs in;
  in.rows = 10000;
  in.expected_probes = 10000;
  in.build_passes = 3;
  in.divisible = true;
  in.maintainable = true;
  in.dirty_rows = 5;
  in.overlay = 0;
  CostDecision d = model.Choose(in);
  EXPECT_EQ(d.choice, PhysicalChoice::kIncremental);
  EXPECT_LT(d.est.incremental, d.est.rebuild);
}

TEST(CostModelTest, HighChurnFallsBackToRebuild) {
  CostModel model;
  FamilyCostInputs in;
  in.rows = 10000;
  in.expected_probes = 10000;
  in.build_passes = 3;
  in.divisible = true;
  in.maintainable = true;
  in.dirty_rows = 9500;  // nearly every row changed: rebuild is cheaper
  in.overlay = 0;
  EXPECT_EQ(model.Choose(in).choice, PhysicalChoice::kRebuild);
}

TEST(CostModelTest, AccumulatedOverlayForcesARebuild) {
  CostModel model;
  FamilyCostInputs in;
  in.rows = 10000;
  in.expected_probes = 10000;
  in.build_passes = 3;
  in.divisible = true;
  in.maintainable = true;
  in.dirty_rows = 5;
  in.overlay = 50000;  // every probe would pay a huge linear correction
  EXPECT_EQ(model.Choose(in).choice, PhysicalChoice::kRebuild);
}

TEST(CostModelTest, EwmaTracksDemandDeterministically) {
  CountEwma a, b;
  EXPECT_DOUBLE_EQ(a.Get(42.0), 42.0) << "unseeded estimate uses fallback";
  for (int64_t obs : {100, 100, 0, 0, 0}) {
    a.Observe(obs);
    b.Observe(obs);
  }
  EXPECT_DOUBLE_EQ(a.Get(0.0), b.Get(0.0))
      << "identical observations must give identical estimates";
  EXPECT_LT(a.Get(0.0), 100.0);
  EXPECT_GT(a.Get(0.0), 0.0) << "EWMA decays, it does not forget instantly";
}

// --------------------------------------------------- range-tree delta apply

/// From-scratch oracle: rebuild a tree over `points` and compare every
/// aggregate answer over a probe grid against `maintained`.
void ExpectTreesAgree(const LayeredRangeTree2D& maintained,
                      const std::vector<PointRef>& points,
                      const std::vector<std::vector<double>>& terms) {
  LayeredRangeTree2D fresh(points, terms);
  for (double xlo = -2; xlo <= 10; xlo += 3) {
    for (double ylo = -2; ylo <= 10; ylo += 3) {
      for (double size : {2.0, 5.0, 100.0}) {
        Rect rect{xlo, xlo + size, ylo, ylo + size};
        AggResult want = fresh.Aggregate(rect);
        AggResult got = maintained.Aggregate(rect);
        ASSERT_EQ(want.count, got.count)
            << "count diverged on [" << xlo << "," << xlo + size << "]x["
            << ylo << "," << ylo + size << "]";
        ASSERT_EQ(want.sums, got.sums) << "sums diverged";
      }
    }
  }
}

TEST(RangeTreeDeltaTest, OverlayMatchesFromScratchRebuild) {
  // Integral coordinates and terms: the determinism contract under which
  // overlay arithmetic is exact.
  Xoshiro256 rng(7);
  std::vector<PointRef> points;
  std::vector<std::vector<double>> terms(2);
  const int32_t n = 200;
  for (int32_t i = 0; i < n; ++i) {
    points.push_back(PointRef{static_cast<double>(rng.Next() % 9),
                              static_cast<double>(rng.Next() % 9), i});
    terms[0].push_back(static_cast<double>(rng.Next() % 100));
    terms[1].push_back(static_cast<double>(rng.Next() % 100));
  }
  LayeredRangeTree2D tree(points, terms);

  // Churn 40 of the 200 points through remove+insert (moved position and
  // changed payload), tracking the evolving truth in `points`/`terms`.
  for (int32_t step = 0; step < 40; ++step) {
    int32_t id = static_cast<int32_t>(rng.Next() % n);
    double old_terms[2] = {terms[0][id], terms[1][id]};
    tree.RemovePoint(points[id].x, points[id].y, old_terms);
    points[id].x = static_cast<double>(rng.Next() % 9);
    points[id].y = static_cast<double>(rng.Next() % 9);
    terms[0][id] = static_cast<double>(rng.Next() % 100);
    terms[1][id] = static_cast<double>(rng.Next() % 100);
    double new_terms[2] = {terms[0][id], terms[1][id]};
    tree.InsertPoint(points[id].x, points[id].y, new_terms);
  }
  EXPECT_GT(tree.delta_size(), 0);
  ExpectTreesAgree(tree, points, terms);
}

TEST(RangeTreeDeltaTest, RedundantChurnAnnihilates) {
  std::vector<PointRef> points{{1, 2, 0}, {3, 4, 1}};
  std::vector<std::vector<double>> terms{{10, 20}};
  LayeredRangeTree2D tree(points, terms);
  double t0[1] = {10};
  // Remove and re-insert the identical point: the overlay must not grow.
  tree.RemovePoint(1, 2, t0);
  tree.InsertPoint(1, 2, t0);
  EXPECT_EQ(tree.delta_size(), 0);
  ExpectTreesAgree(tree, points, terms);
}

TEST(RangeTreeDeltaTest, EmptyTreeIsAPureOverlay) {
  std::vector<std::vector<double>> one_term(1);
  LayeredRangeTree2D tree({}, one_term);
  double t[1] = {7};
  tree.InsertPoint(2, 2, t);
  Rect everything{-100, 100, -100, 100};
  AggResult res = tree.Aggregate(everything);
  EXPECT_EQ(res.count, 1);
  EXPECT_EQ(res.sums[0], 7);
}

// -------------------------------------------------- change-tracking basics

TEST(ChangeTrackingTest, RecordsActualChangesOnly) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("hp", CombineType::kConst).ok());
  ASSERT_TRUE(schema.AddAttribute("dmg", CombineType::kSum).ok());
  EnvironmentTable table(schema);
  ASSERT_TRUE(table.AddRow({100, 0}).ok());
  ASSERT_TRUE(table.AddRow({50, 0}).ok());
  table.EnableChangeTracking();
  EXPECT_TRUE(table.changes().structural)
      << "the first window must force a rebuild";
  table.ClearChanges();

  AttrId hp = schema.Find("hp");
  table.Set(0, hp, 100.0);  // no-op write: same value
  EXPECT_TRUE(table.changes().dirty_rows.empty());
  table.Set(1, hp, 49.0);
  ASSERT_EQ(table.changes().dirty_rows.size(), 1u);
  EXPECT_EQ(table.changes().dirty_rows[0], 1);
  EXPECT_NE(table.changes().attr_mask(1) & TableChanges::BitOf(hp), 0u);
  EXPECT_FALSE(table.changes().structural);

  table.ClearChanges();
  EXPECT_TRUE(table.changes().dirty_rows.empty());
  int32_t removed = table.RemoveIf([](RowId r) { return r == 0; });
  EXPECT_EQ(removed, 1);
  EXPECT_TRUE(table.changes().structural);
}

// ------------------------------------------------- per-scenario contracts

class AdaptiveContractTest : public ::testing::TestWithParam<std::string> {};

// The tentpole contract: adaptive mode (1 and 4 threads) is bit-exact
// with the naive reference on every registered scenario, tick by tick,
// while the cost model is free to mix scan/rebuild/incremental per
// family.
TEST_P(AdaptiveContractTest, AdaptiveIsBitExactWithNaive) {
  const std::string name = GetParam();
  const ScenarioParams params = SmallParams();
  auto naive = BuildOrDie(name, params, EvaluatorMode::kNaive, 1);
  auto adaptive = BuildOrDie(name, params, EvaluatorMode::kAdaptive, 1);
  auto threaded = BuildOrDie(name, params, EvaluatorMode::kAdaptive, 4);
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(adaptive, nullptr);
  ASSERT_NE(threaded, nullptr);

  for (int64_t tick = 0; tick < kTicks; ++tick) {
    ASSERT_TRUE(naive->Tick().ok()) << name << " naive tick " << tick;
    ASSERT_TRUE(adaptive->Tick().ok()) << name << " adaptive tick " << tick;
    ASSERT_TRUE(threaded->Tick().ok()) << name << " threaded tick " << tick;
    ASSERT_TRUE(naive->table().Equals(adaptive->table()))
        << name << " naive vs adaptive diverged at tick " << tick << ":\n"
        << naive->table().DiffString(adaptive->table());
    ASSERT_TRUE(adaptive->table().Equals(threaded->table()))
        << name << " adaptive 1 vs 4 threads diverged at tick " << tick
        << ":\n"
        << adaptive->table().DiffString(threaded->table());
  }
  Status st =
      ScenarioRegistry::Global().CheckInvariants(name, params, *adaptive);
  EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
}

// Forced churn: pin every divisible family to the incremental range-tree
// path (whenever it is applicable at all) — movement and effect churn
// then flow through RemovePoint/InsertPoint overlays every tick, and the
// result must still match the naive reference bit for bit. This is the
// direct proof that incremental maintenance equals a from-scratch
// rebuild at simulation level.
TEST_P(AdaptiveContractTest, ForcedIncrementalMatchesNaive) {
  const std::string name = GetParam();
  const ScenarioParams params = SmallParams();
  auto naive = BuildOrDie(name, params, EvaluatorMode::kNaive, 1);
  auto forced = BuildOrDie(name, params, EvaluatorMode::kAdaptive, 1);
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(forced, nullptr);
  const PhysicalChoice incremental = PhysicalChoice::kIncremental;
  ForceChoice(forced.get(), &incremental);

  // Whether a range-tree family serving several aggregates (one tree
  // carrying the union of their term columns) exists, and whether one
  // took the delta path on some tick.
  bool has_fused = false;
  bool fused_incremental = false;
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    ASSERT_TRUE(naive->Tick().ok());
    ASSERT_TRUE(forced->Tick().ok()) << name << " forced tick " << tick;
    ASSERT_TRUE(naive->table().Equals(forced->table()))
        << name << " forced-incremental diverged at tick " << tick << ":\n"
        << naive->table().DiffString(forced->table());
    for (const auto& session : forced->sessions()) {
      const IndexedAggregateProvider& provider = *session->provider;
      for (int32_t f = 0; f < provider.NumIndexFamilies(); ++f) {
        const std::vector<int32_t>& members = provider.family_members(f);
        if (members.size() < 2 || provider.signature(members[0]).kind !=
                                      IndexKind::kDivisibleRangeTree) {
          continue;
        }
        has_fused = true;
        if (provider.family_mode(f) == incremental) fused_incremental = true;
      }
    }
  }
  EXPECT_EQ(has_fused, fused_incremental)
      << name << ": no fused family took the incremental path";
}

// Forced scan: the other extreme must also stay bit-exact (and is how a
// mispredicting cost model degrades — to the naive evaluator, never to a
// wrong answer).
TEST_P(AdaptiveContractTest, ForcedScanMatchesNaive) {
  const std::string name = GetParam();
  const ScenarioParams params = SmallParams();
  auto naive = BuildOrDie(name, params, EvaluatorMode::kNaive, 1);
  auto forced = BuildOrDie(name, params, EvaluatorMode::kAdaptive, 1);
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(forced, nullptr);
  const PhysicalChoice scan = PhysicalChoice::kScan;
  ForceChoice(forced.get(), &scan);
  ASSERT_TRUE(naive->Run(kTicks).ok());
  ASSERT_TRUE(forced->Run(kTicks).ok());
  EXPECT_TRUE(naive->table().Equals(forced->table()))
      << naive->table().DiffString(forced->table());
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, AdaptiveContractTest,
    ::testing::ValuesIn(ScenarioRegistry::Global().List()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------------ explain/obs

TEST(AdaptiveExplainTest, ExplainShowsPerFamilyDecisions) {
  auto sim = BuildOrDie("epidemic", SmallParams(), EvaluatorMode::kAdaptive, 1);
  ASSERT_NE(sim, nullptr);
  ASSERT_TRUE(sim->Run(10).ok());
  const std::string explain = sim->Explain();
  EXPECT_NE(explain.find("evaluator: adaptive"), std::string::npos) << explain;
  EXPECT_NE(explain.find("Adaptive decisions"), std::string::npos) << explain;
  EXPECT_NE(explain.find("est{scan="), std::string::npos) << explain;
  EXPECT_NE(explain.find("observed{probes/tick~"), std::string::npos)
      << explain;
  // The logical plan's aggregate operators carry physical annotations.
  EXPECT_NE(explain.find("{physical: "), std::string::npos) << explain;
  EXPECT_NE(explain.find("lifetime decisions:"), std::string::npos) << explain;
}

TEST(AdaptiveExplainTest, SnapshotRestoreStaysBitExact) {
  const ScenarioParams params = SmallParams();
  auto sim = BuildOrDie("battle", params, EvaluatorMode::kAdaptive, 1);
  ASSERT_NE(sim, nullptr);
  ASSERT_TRUE(sim->Run(10).ok());
  const std::string dir = ::testing::TempDir() + "/adaptive_ckpt";
  std::filesystem::remove_all(dir);  // no world left by an earlier run
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  ASSERT_TRUE(sim->Run(15).ok());
  EnvironmentTable after = sim->table().Clone();
  ASSERT_TRUE(sim->RestoreFrom(dir).ok());
  ASSERT_TRUE(sim->Run(15).ok());
  EXPECT_TRUE(sim->table().Equals(after))
      << "replay after restore diverged:\n"
      << sim->table().DiffString(after);
}

}  // namespace
}  // namespace sgl
