// Adaptive-evaluator tests: the cost-based per-family strategy choice
// (src/opt/cost.h, src/opt/adaptive_provider.h) must never change what a
// simulation computes — only how. Every registered scenario runs 50
// ticks in lockstep under adaptive {1, 4}-thread configurations against
// the naive reference, and again with the choice forced: scan on every
// tick, and scan and rebuild alternating tick by tick.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "engine/simulation.h"
#include "opt/adaptive_provider.h"
#include "opt/cost.h"
#include "scenario/scenario.h"

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

TEST(CostModelTest, PartitionTotalsRebuildIsLinear) {
  // A partition-totals family builds in one linear pass and answers a
  // probe without a tree descent: no log n term on either side.
  CostModel model;
  const CostConstants& k = model.constants();
  FamilyCostInputs in;
  in.rows = 10000;
  in.expected_probes = 250;
  in.build_passes = 3;
  in.builds_tree = false;
  const CostDecision totals = model.Choose(in);
  EXPECT_DOUBLE_EQ(totals.est.rebuild,
                   10000.0 * 3 * k.build_row_pass + 250.0 * k.probe_base);

  in.builds_tree = true;
  const CostDecision tree = model.Choose(in);
  EXPECT_GT(tree.est.rebuild, totals.est.rebuild);
  EXPECT_DOUBLE_EQ(tree.est.scan, totals.est.scan);
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

// ------------------------------------------------- per-scenario contracts

class AdaptiveContractTest : public ::testing::TestWithParam<std::string> {};

// The tentpole contract: adaptive mode (1 and 4 threads) is bit-exact
// with the naive reference on every registered scenario, tick by tick,
// while the cost model is free to mix scan and rebuild per family.
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

// Alternating: every family is forced to scan on even ticks and to
// rebuild on odd ones, so each rebuild follows a tick on which the
// family's structures were not built. Nothing may carry over from a
// tick's build to a later one, and the result must match the naive
// reference bit for bit, tick by tick.
TEST_P(AdaptiveContractTest, AlternatingScanRebuildMatchesNaive) {
  const std::string name = GetParam();
  const ScenarioParams params = SmallParams();
  auto naive = BuildOrDie(name, params, EvaluatorMode::kNaive, 1);
  auto forced = BuildOrDie(name, params, EvaluatorMode::kAdaptive, 1);
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(forced, nullptr);
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    const PhysicalChoice choice =
        tick % 2 == 0 ? PhysicalChoice::kScan : PhysicalChoice::kRebuild;
    ForceChoice(forced.get(), &choice);
    ASSERT_TRUE(naive->Tick().ok());
    ASSERT_TRUE(forced->Tick().ok()) << name << " forced tick " << tick;
    ASSERT_TRUE(naive->table().Equals(forced->table()))
        << name << " scan/rebuild alternation diverged at tick " << tick
        << ":\n"
        << naive->table().DiffString(forced->table());
    for (const auto& session : forced->sessions()) {
      const IndexedAggregateProvider& provider = *session->provider;
      for (int32_t f = 0; f < provider.NumIndexFamilies(); ++f) {
        ASSERT_EQ(choice, provider.family_mode(f)) << name << " family " << f;
      }
    }
  }
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
