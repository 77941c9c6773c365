// Optimizer tests: signature extraction (Section 5.3's conjunct
// classification), index-family sharing, indexed-vs-naive agreement at
// the provider level, and batch-vs-per-unit agreement at the EvalBatch
// seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/simulation.h"
#include "exec/thread_pool.h"
#include "game/battle.h"
#include "opt/action_sink.h"
#include "opt/adaptive_provider.h"
#include "opt/indexed_provider.h"
#include "opt/sharing.h"
#include "opt/signature.h"
#include "scenario/scenario.h"

namespace sgl {
namespace {

Schema TestSchema() { return BattleSchema(); }

Script Compile(const std::string& src) {
  auto script = CompileScript(src, TestSchema());
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  return script.MoveValue();
}

TEST(Signature, ClassifiesRangePartitionAndFilters) {
  Script script = Compile(R"(
    aggregate A(u, r) {
      select count(*) from E e
      where e.player <> u.player          # partition, negated
        and e.unittype = 1                # pure-e: build filter
        and e.posx >= u.posx - r and e.posx <= u.posx + r   # range x
        and e.posy >= u.posy - r and e.posy <= u.posy + r   # range y
        and u.health > 10;                # pure-u: probe filter
    }
    function main(u) { let x = A(u, 5); }
  )");
  auto sig = ExtractSignature(script, 0);
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();
  EXPECT_EQ(IndexKind::kDivisibleRangeTree, sig->kind);
  ASSERT_EQ(2u, sig->ranges.size());
  EXPECT_EQ(script.schema.Find("posx"), sig->ranges[0].attr);
  EXPECT_EQ(script.schema.Find("posy"), sig->ranges[1].attr);
  ASSERT_EQ(1u, sig->partitions.size());
  EXPECT_TRUE(sig->partitions[0].negated);
  EXPECT_EQ(1u, sig->build_filters.size());
  EXPECT_EQ(1u, sig->probe_filters.size());
  EXPECT_FALSE(sig->exclude_self);
}

TEST(Signature, DetectsSelfExclusion) {
  Script script = Compile(R"(
    aggregate A(u) {
      select count(*) from E e where e.key <> u.key and e.player = u.player;
    }
    function main(u) { let x = A(u); }
  )");
  auto sig = ExtractSignature(script, 0);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(sig->exclude_self);
  // No range dimension: per-partition running totals answer every probe.
  EXPECT_EQ(IndexKind::kPartitionTotals, sig->kind);
}

TEST(Signature, StrictBoundsAreRanges) {
  Script script = Compile(R"(
    aggregate A(u) {
      select count(*) from E e where e.health < u.health;
    }
    function main(u) { let x = A(u); }
  )");
  auto sig = ExtractSignature(script, 0);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(IndexKind::kDivisibleRangeTree, sig->kind);
  ASSERT_EQ(1u, sig->ranges.size());
  EXPECT_EQ(script.schema.Find("health"), sig->ranges[0].attr);
  EXPECT_TRUE(sig->ranges[0].hi_strict);
  EXPECT_EQ(nullptr, sig->ranges[0].lo);
}

TEST(Signature, MinMaxAndArgmin) {
  Script script = Compile(R"(
    aggregate Weakest(u, r) {
      select argmin(e.health) from E e
      where e.player <> u.player
        and e.posx >= u.posx - r and e.posx <= u.posx + r;
    }
    aggregate MaxHp(u) { select max(e.health) from E e; }
    function main(u) { let a = Weakest(u, 3); let b = MaxHp(u); }
  )");
  auto s0 = ExtractSignature(script, 0);
  auto s1 = ExtractSignature(script, 1);
  ASSERT_TRUE(s0.ok() && s1.ok());
  EXPECT_EQ(IndexKind::kMinMaxTree, s0->kind);
  EXPECT_EQ(IndexKind::kMinMaxTree, s1->kind);
}

TEST(Signature, NearestUsesKdTree) {
  Script script = Compile(R"(
    aggregate N(u) {
      select nearest(*) from E e where e.player <> u.player and e.key <> u.key;
    }
    function main(u) { let a = N(u); }
  )");
  auto sig = ExtractSignature(script, 0);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(IndexKind::kKdNearest, sig->kind);
  EXPECT_TRUE(sig->exclude_self);
}

TEST(Signature, FallbacksAreExplained) {
  Script script = Compile(R"(
    # e.health compared against an expression mixing e and u nonlinearly.
    aggregate Bad1(u) {
      select count(*) from E e where e.health + e.posx > u.health;
    }
    # min with self-exclusion cannot subtract (not divisible).
    aggregate Bad2(u) {
      select min(e.health) from E e where e.key <> u.key;
    }
    # three probe-dependent range attributes exceed the 2-D structures.
    aggregate Bad3(u) {
      select count(*) from E e
      where e.posx <= u.posx and e.posy <= u.posy and e.health <= u.health;
    }
    function main(u) {
      let a = Bad1(u); let b = Bad2(u); let c = Bad3(u);
    }
  )");
  for (int32_t i = 0; i < 3; ++i) {
    auto sig = ExtractSignature(script, i);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(IndexKind::kNaive, sig->kind) << "aggregate " << i;
    EXPECT_FALSE(sig->reason.empty());
  }
}

TEST(Signature, BuildKeyIgnoresTheProbeSide) {
  Script script = Compile(R"(
    aggregate A(u) {
      select count(*) from E e
      where e.player <> u.player and e.posx >= u.posx - 32
        and e.posx <= u.posx + 32;
    }
    aggregate B(v, r) {
      select sum(ee.health) as h, count(*) as n from E ee
      where ee.player = v.player and ee.key <> v.key
        and ee.posx > v.posx - r and ee.posx <= v.posx + r;
    }
    aggregate C(u) {
      select count(*) from E e
      where e.player <> u.player and e.unittype = 1
        and e.posx >= u.posx - 32 and e.posx <= u.posx + 32;
    }
    aggregate D(u) {
      select count(*) from E e
      where e.player <> u.player and e.posy >= u.posy - 32
        and e.posy <= u.posy + 32;
    }
    aggregate Lo(u) { select min(e.health) from E e where e.posx >= u.posx; }
    aggregate ArgLo(u) {
      select argmin(e.health) from E e where e.posx <= u.posx;
    }
    aggregate Hi(u) { select max(e.health) from E e where e.posx >= u.posx; }
    function main(u) {
      let a = A(u); let b = B(u, 4); let c = C(u); let d = D(u);
      let lo = Lo(u); let al = ArgLo(u); let hi = Hi(u);
    }
  )");
  std::vector<AggregateSignature> sigs;
  for (int32_t a = 0; a < 7; ++a) {
    auto sig = ExtractSignature(script, a);
    ASSERT_TRUE(sig.ok()) << sig.status().ToString();
    sigs.push_back(*sig);
  }
  // Partition =/<>, bounds, strictness, self-exclusion, terms and variable
  // spelling are all probe-side or per-member: A and B share a build.
  EXPECT_EQ(sigs[0].BuildKey(), sigs[1].BuildKey());
  EXPECT_NE(sigs[0].BuildKey(), sigs[2].BuildKey());  // build filter
  EXPECT_NE(sigs[0].BuildKey(), sigs[3].BuildKey());  // range attribute
  // min and argmin over one term build the same minimum tree; max does not.
  EXPECT_EQ(sigs[4].BuildKey(), sigs[5].BuildKey());
  EXPECT_NE(sigs[4].BuildKey(), sigs[6].BuildKey());
}

// The number of physical families of the registered scenario `name`'s
// first script.
int32_t ScenarioFamilies(const std::string& name) {
  auto sim = ScenarioRegistry::Global().BuildSimulation(
      name, ScenarioParams{}, SimulationConfig{});
  EXPECT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
  if (!sim.ok()) return -1;
  return (*sim)->session(0).provider->NumIndexFamilies();
}

TEST(Provider, SharesFamiliesAcrossAggregates) {
  Script script = Compile(BattleScriptSource());
  Interpreter interp(script);
  auto provider = IndexedAggregateProvider::Create(script, interp);
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  // 13 aggregates, 8 builds: the five player-partitioned boxes without a
  // build filter fuse into one tree, and AllyCentroid/AllySpread share
  // one set of partition totals.
  EXPECT_EQ(13, static_cast<int32_t>(script.program.aggregates.size()));
  ASSERT_EQ(8, (*provider)->NumIndexFamilies());
  auto index_of = [&](const std::string& name) {
    for (size_t a = 0; a < script.program.aggregates.size(); ++a) {
      if (script.program.aggregates[a].name == name) {
        return static_cast<int32_t>(a);
      }
    }
    ADD_FAILURE() << "no aggregate " << name;
    return -1;
  };
  const std::vector<int32_t> fused_box{
      index_of("CountEnemiesInSight"), index_of("EnemyCentroidInSight"),
      index_of("CountAlliesNear"), index_of("EnemyStrengthInSight"),
      index_of("AllyStrengthInSight")};
  EXPECT_EQ(fused_box, (*provider)->family_members(0));
  EXPECT_EQ(IndexKind::kDivisibleRangeTree,
            (*provider)->signature(fused_box[0]).kind);
  const std::vector<int32_t> ally_totals{index_of("AllyCentroid"),
                                         index_of("AllySpread")};
  EXPECT_EQ(ally_totals, (*provider)->family_members(2));
  EXPECT_EQ(IndexKind::kPartitionTotals,
            (*provider)->signature(ally_totals[0]).kind);
  // The fused tree carries posx, posy and health once, with no square
  // columns (no member takes a stddev); the totals family carries squares.
  const std::string plan = (*provider)->DescribePlan();
  EXPECT_NE(std::string::npos,
            plan.find("family 0: divisible-range-tree ranges(posx, posy) "
                      "partitions(player) columns(3)"))
      << plan;
  EXPECT_NE(std::string::npos,
            plan.find("family 2: partition-totals partitions(player) "
                      "columns(4)"))
      << plan;

  // InfectedNear and OutbreakCentroid share one filtered box; CrowdCentroid
  // is a partition-free total. Market's global sums are totals too.
  EXPECT_EQ(2, ScenarioFamilies("epidemic"));
  EXPECT_EQ(2, ScenarioFamilies("market"));
}

// Fusion corner cases on the battle schema: members of one build that
// differ in partition =/<>, self-exclusion, probe filters, stddev, and
// variable spelling; a build filter shared by a count and a centroid; a
// multi-partition <> probe; range-free totals with a partition, without
// one, with a build filter, and probing a partition no row is in; and
// min/argmin sharing one tree.
constexpr const char* kFusionScript = R"(
  aggregate CountFoes(u, r) {
    select count(*) from E e
    where e.player <> u.player
      and e.posx >= u.posx - r and e.posx <= u.posx + r
      and e.posy >= u.posy - r and e.posy <= u.posy + r;
  }
  aggregate FriendStats(v, r) {
    select sum(f.health) as h, stddev(f.posx) as sx, count(*) as n from E f
    where f.player = v.player and f.key <> v.key and v.health > 3
      and f.posx >= v.posx - r and f.posx <= v.posx + r
      and f.posy > v.posy - r and f.posy < v.posy + r;
  }
  aggregate FoeCentroid(u) {
    select avg(e.posx) as x, avg(e.posy) as y from E e
    where e.player <> u.player
      and e.posx >= u.posx - 12 and e.posx <= u.posx + 12
      and e.posy >= u.posy - 12 and e.posy <= u.posy + 12;
  }
  aggregate WoundedCount(u) {
    select count(*) from E e
    where e.health < e.maxhealth
      and e.posx >= u.posx - 10 and e.posx <= u.posx + 10
      and e.posy >= u.posy - 10 and e.posy <= u.posy + 10;
  }
  aggregate WoundedCentroid(u) {
    select avg(w.posx) as x, avg(w.posy) as y, count(*) as n from E w
    where w.health < w.maxhealth
      and w.posx >= u.posx - 6 and w.posx <= u.posx + 6
      and w.posy >= u.posy - 6 and w.posy <= u.posy + 6;
  }
  aggregate OtherTypes(u, r) {
    select count(*) as n, avg(e.health) as h from E e
    where e.unittype <> u.unittype
      and e.posx >= u.posx - r and e.posx <= u.posx + r
      and e.posy >= u.posy - r and e.posy <= u.posy + r;
  }
  aggregate SameTypeNear(u) {
    select count(*) from E e
    where e.unittype = u.unittype and e.key <> u.key
      and e.posx >= u.posx - 5 and e.posx <= u.posx + 5
      and e.posy >= u.posy - 5 and e.posy <= u.posy + 5;
  }
  aggregate TeamTotals(u) {
    select sum(e.health) as h, stddev(e.posy) as sy, count(*) as n
    from E e where e.player = u.player and e.key <> u.key;
  }
  aggregate TeamTally(u) {
    select count(*) from E e where e.player = u.player;
  }
  aggregate FoeTypes(u) {
    select sum(e.health) as h, count(*) as n from E e
    where e.unittype <> u.unittype;
  }
  aggregate Everyone(u) {
    select sum(e.health) as h, avg(e.posx) as x from E e;
  }
  aggregate Ghosts(u) {
    select count(*) as n, avg(e.health) as h from E e
    where e.player = u.player + 100;
  }
  aggregate FoeArchers(u) {
    select count(*) as n, sum(e.health) as h from E e
    where e.unittype = 1 and e.player <> u.player;
  }
  aggregate WeakestFoe(u, r) {
    select argmin(e.health) from E e
    where e.player <> u.player
      and e.posx >= u.posx - r and e.posx <= u.posx + r
      and e.posy >= u.posy - r and e.posy <= u.posy + r;
  }
  aggregate WeakestFoeHealth(u) {
    select min(e.health) from E e
    where e.player <> u.player
      and e.posx >= u.posx - 9 and e.posx <= u.posx + 9
      and e.posy >= u.posy - 9 and e.posy <= u.posy + 9;
  }
  function main(u) { let a = CountFoes(u, 8); }
)";

TEST(Provider, FusesMembersThatDifferOnlyInTheirProbe) {
  Script script = Compile(kFusionScript);
  Interpreter interp(script);
  auto provider = IndexedAggregateProvider::Create(script, interp);
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  // 15 aggregates, 8 builds: the player box {CountFoes, FriendStats,
  // FoeCentroid}, the wounded box {WoundedCount, WoundedCentroid}, the
  // unittype box {OtherTypes, SameTypeNear}, the player totals
  // {TeamTotals, TeamTally, Ghosts}, the unittype totals {FoeTypes}, the
  // global totals {Everyone}, the archer totals {FoeArchers}, and one
  // minimum tree {WeakestFoe, WeakestFoeHealth}.
  EXPECT_EQ((std::vector<int32_t>{0, 1, 2}), (*provider)->family_members(0));
  EXPECT_EQ((std::vector<int32_t>{3, 4}), (*provider)->family_members(1));
  EXPECT_EQ((std::vector<int32_t>{5, 6}), (*provider)->family_members(2));
  EXPECT_EQ((std::vector<int32_t>{7, 8, 11}), (*provider)->family_members(3));
  EXPECT_EQ((std::vector<int32_t>{13, 14}), (*provider)->family_members(7));
  EXPECT_EQ(8, (*provider)->NumIndexFamilies());
}

// Every aggregate of `script`, probed from every 7th unit of `table`
// with extra scalar parameters bound to a plausible radius: the indexed
// provider (building on `pool` when one is given) must agree exactly with
// the reference scan.
void ExpectProviderMatchesNaive(const Script& script,
                                const EnvironmentTable& table, uint64_t seed,
                                exec::ThreadPool* pool) {
  Interpreter interp(script);
  auto provider = IndexedAggregateProvider::Create(script, interp);
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  TickRandom rnd(seed, 0);
  ASSERT_TRUE((*provider)->BuildIndexes(table, rnd, pool).ok());

  for (int32_t agg = 0;
       agg < static_cast<int32_t>(script.program.aggregates.size()); ++agg) {
    const AggregateDecl& decl = script.program.aggregates[agg];
    std::vector<Value> args;
    for (size_t p = 1; p < decl.params.size(); ++p) args.push_back(Value(8.0));
    for (RowId u = 0; u < table.NumRows(); u += 7) {
      auto want = interp.EvalAggregate(agg, args, u, table, rnd);
      auto got = (*provider)->Eval(agg, args, u, table, rnd);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(*want == *got)
          << decl.name << " unit row " << u << ": naive=" << want->ToString()
          << " indexed=" << got->ToString();
    }
  }
}

// Property test: for random worlds and every battle aggregate, the
// indexed provider and the reference scan agree exactly.
class ProviderAgreement : public ::testing::TestWithParam<uint64_t> {};

EnvironmentTable BattleWorld(uint64_t seed) {
  ScenarioConfig config;
  config.num_units = 150;
  config.density = 0.03;
  config.seed = seed;
  auto table = BuildScenario(config);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.MoveValue();
}

TEST_P(ProviderAgreement, AllBattleAggregatesMatchNaive) {
  ExpectProviderMatchesNaive(Compile(BattleScriptSource()),
                             BattleWorld(GetParam()), GetParam(), nullptr);
}

TEST_P(ProviderAgreement, FusionCornerCasesMatchNaive) {
  ExpectProviderMatchesNaive(Compile(kFusionScript), BattleWorld(GetParam()),
                             GetParam(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProviderAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

// The same agreement on the other scenarios' scripts, a few ticks into a
// run (so epidemic has infected and recovered units), and with fused
// families built concurrently on a pool.
TEST(ProviderAgreementScenarios, ScenarioScriptsMatchNaive) {
  exec::ThreadPool pool(4);
  for (const std::string name : {"battle", "epidemic", "market"}) {
    ScenarioParams params;
    params.units = 300;
    params.density = 0.03;
    auto sim = ScenarioRegistry::Global().BuildSimulation(name, params,
                                                          SimulationConfig{});
    ASSERT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
    ASSERT_TRUE((*sim)->Run(8).ok()) << name;
    const Script& script = (*sim)->session(0).script;
    SCOPED_TRACE(name);
    ExpectProviderMatchesNaive(script, (*sim)->table(), 3, nullptr);
    ExpectProviderMatchesNaive(script, (*sim)->table(), 3, &pool);
  }
  ExpectProviderMatchesNaive(Compile(kFusionScript), BattleWorld(9), 9,
                             &pool);
}

// ------------------------------------------------------- the EvalBatch seam

// One aggregate call site's batch as the VM hands it over: lanes
// [lo, lo + n) under a random active mask, a random radius per lane for
// every scalar parameter, and the probe side evaluated with the
// interpreter. Inactive lanes carry NaN arguments and probe values, and
// every output column starts at a sentinel, so a provider that reads or
// skips the wrong lanes shows.
struct SeamBatch {
  std::vector<uint8_t> active;
  std::vector<std::vector<double>> args;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<uint8_t>> filters;
  std::vector<std::vector<double>> out;
  std::vector<const double*> arg_cols;
  std::vector<const double*> value_cols;
  std::vector<const uint8_t*> filter_cols;
  std::vector<double*> out_cols;
  AggBatch batch;

  /// The lane's arguments, boxed as Eval takes them.
  std::vector<Value> LaneArgs(int32_t i) const {
    std::vector<Value> v;
    for (const std::vector<double>& col : args) v.push_back(Value(col[i]));
    return v;
  }
};

std::unique_ptr<SeamBatch> MakeSeamBatch(const Script& script,
                                         const Interpreter& interp,
                                         int32_t agg,
                                         const EnvironmentTable& table,
                                         const TickRandom& rnd, RowId lo,
                                         int32_t n, Xoshiro256* rng) {
  constexpr double kSentinel = 12345.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const AggregateDecl& decl = script.program.aggregates[agg];
  auto sig = ExtractSignature(script, agg);
  EXPECT_TRUE(sig.ok()) << sig.status().ToString();
  auto b = std::make_unique<SeamBatch>();
  b->active.resize(n);
  for (int32_t i = 0; i < n; ++i) b->active[i] = rng->NextBounded(4) != 0;
  const double radii[] = {2, 6, 8, 24};
  b->args.assign(decl.params.size() - 1, std::vector<double>(n, nan));
  for (std::vector<double>& col : b->args) {
    for (int32_t i = 0; i < n; ++i) {
      if (b->active[i]) col[i] = radii[rng->NextBounded(4)];
    }
  }
  const bool has_probe = sig->kind != IndexKind::kNaive;
  const std::vector<const Expr*> exprs =
      has_probe ? sig->ProbeValues() : std::vector<const Expr*>{};
  const size_t num_filters = has_probe ? sig->probe_filters.size() : 0;
  b->values.assign(exprs.size(), std::vector<double>(n, nan));
  b->filters.assign(num_filters, std::vector<uint8_t>(n, 7));
  for (int32_t i = 0; i < n; ++i) {
    if (!b->active[i]) continue;
    const RowId u = lo + i;
    LocalStack locals;
    for (size_t p = 1; p < decl.params.size(); ++p) {
      locals.Push(decl.params[p], Value(b->args[p - 1][i]));
    }
    for (size_t v = 0; v < exprs.size(); ++v) {
      auto val = interp.EvalExprIn(*exprs[v], table, &decl.params[0], u,
                                   nullptr, -1, &locals, rnd, table.KeyAt(u));
      EXPECT_TRUE(val.ok() && val->is_scalar());
      b->values[v][i] = val->scalar();
    }
    for (size_t f = 0; f < num_filters; ++f) {
      auto pass = interp.EvalCondIn(*sig->probe_filters[f], table,
                                    &decl.params[0], u, nullptr, -1, &locals,
                                    rnd, table.KeyAt(u));
      EXPECT_TRUE(pass.ok());
      b->filters[f][i] = *pass ? 1 : 0;
    }
  }
  const int32_t nout = AggregateResultWidth(script, agg);
  b->out.assign(nout, std::vector<double>(n, kSentinel));
  for (const auto& col : b->args) b->arg_cols.push_back(col.data());
  for (const auto& col : b->values) b->value_cols.push_back(col.data());
  for (const auto& col : b->filters) b->filter_cols.push_back(col.data());
  for (auto& col : b->out) b->out_cols.push_back(col.data());
  AggBatch& batch = b->batch;
  batch.agg_index = agg;
  batch.lo = lo;
  batch.n = n;
  batch.active = b->active.data();
  batch.args = b->arg_cols.data();
  batch.num_args = static_cast<int32_t>(b->arg_cols.size());
  batch.has_probe = has_probe;
  batch.probe_values = b->value_cols.data();
  batch.num_probe_values = static_cast<int32_t>(b->value_cols.size());
  batch.probe_filters = b->filter_cols.data();
  batch.num_probe_filters = static_cast<int32_t>(b->filter_cols.size());
  batch.out = b->out_cols.data();
  batch.nout = nout;
  return b;
}

/// EvalBatch on `batch_side` must equal per-lane Eval on `lane_side`
/// (the same provider, or an identically built twin) with exact `==` on
/// every output double, and leave inactive lanes 0.
/// `between` (optional) runs after the batch and before the lanes.
void ExpectBatchMatchesLanes(AggregateProvider* batch_side,
                             AggregateProvider* lane_side, SeamBatch* b,
                             const EnvironmentTable& table,
                             const TickRandom& rnd, const std::string& what,
                             const std::function<void()>& between = nullptr) {
  const AggBatch& batch = b->batch;
  ASSERT_TRUE(batch_side->EvalBatch(batch, table, rnd).ok()) << what;
  if (between) between();
  std::vector<double> want(batch.nout);
  for (int32_t i = 0; i < batch.n; ++i) {
    if (!b->active[i]) {
      for (int32_t k = 0; k < batch.nout; ++k) {
        ASSERT_EQ(0.0, b->out[k][i]) << what << " inactive lane " << i;
      }
      continue;
    }
    auto v = lane_side->Eval(batch.agg_index, b->LaneArgs(i), batch.lo + i,
                             table, rnd);
    ASSERT_TRUE(v.ok()) << what << ": " << v.status().ToString();
    ASSERT_TRUE(UnboxAggregateResult(*v, batch.nout, want.data())) << what;
    for (int32_t k = 0; k < batch.nout; ++k) {
      ASSERT_TRUE(want[k] == b->out[k][i])
          << what << " lane " << i << " column " << k << ": Eval "
          << want[k] << " EvalBatch " << b->out[k][i];
    }
  }
}

/// Every aggregate of `script`, in 256-lane windows over `table`.
template <typename Fn>
void ForEachSeamBatch(const Script& script, const Interpreter& interp,
                      const EnvironmentTable& table, const TickRandom& rnd,
                      uint64_t seed, Fn fn) {
  Xoshiro256 rng(seed);
  for (int32_t agg = 0;
       agg < static_cast<int32_t>(script.program.aggregates.size()); ++agg) {
    for (RowId lo = 0; lo < table.NumRows(); lo += 256) {
      const int32_t n = std::min<RowId>(256, table.NumRows() - lo);
      auto b = MakeSeamBatch(script, interp, agg, table, rnd, lo, n, &rng);
      fn(b.get(), script.program.aggregates[agg].name);
    }
  }
}

/// `all_paths`: the script is known to reach every provider path checked
/// for (index families, memo entries), so their absence fails.
void ExpectSeamAgreement(const Script& script, const EnvironmentTable& world,
                         uint64_t seed, bool all_paths) {
  TickRandom rnd(seed, 0);

  {  // Indexed: the batch must also tally exactly the per-lane probes.
    Interpreter interp(script);
    auto provider = IndexedAggregateProvider::Create(script, interp);
    ASSERT_TRUE(provider.ok()) << provider.status().ToString();
    ASSERT_TRUE((*provider)->BuildIndexes(world, rnd).ok());
    IndexedAggregateProvider& p = **provider;
    ForEachSeamBatch(
        script, interp, world, rnd, seed,
        [&](SeamBatch* b, const std::string& name) {
          const int64_t before = p.probe_count();
          int64_t batch_probes = 0;
          ExpectBatchMatchesLanes(
              &p, &p, b, world, rnd, "indexed " + name,
              [&] { batch_probes = p.probe_count() - before; });
          EXPECT_EQ(2 * batch_probes, p.probe_count() - before) << name;
        });
  }

  {  // Adaptive over two builds: the first forced to scan (every family
     // answers lane by lane through the reference evaluator), the second,
     // after some churn, forced to rebuild (every family rebuilt after a
     // scan tick).
    EnvironmentTable table = world.Clone();
    Interpreter interp(script);
    auto provider = AdaptiveAggregateProvider::Create(script, interp);
    ASSERT_TRUE(provider.ok()) << provider.status().ToString();
    if (all_paths) EXPECT_GT((*provider)->NumIndexFamilies(), 0);
    const AttrId posx = table.schema().Find("posx");
    const AttrId health = table.schema().Find("health");
    for (const PhysicalChoice choice :
         {PhysicalChoice::kScan, PhysicalChoice::kRebuild}) {
      (*provider)->ForceChoiceForTest(&choice);
      ASSERT_TRUE((*provider)->BuildIndexes(table, rnd).ok());
      for (int32_t f = 0; f < (*provider)->NumIndexFamilies(); ++f) {
        ASSERT_EQ(choice, (*provider)->family_mode(f)) << "family " << f;
      }
      const std::string what =
          std::string("adaptive ") + PhysicalChoiceName(choice) + " ";
      ForEachSeamBatch(script, interp, table, rnd, seed,
                       [&](SeamBatch* b, const std::string& name) {
                         ExpectBatchMatchesLanes(provider->get(),
                                                 provider->get(), b, table,
                                                 rnd, what + name);
                       });
      for (RowId r = 0; r < table.NumRows(); r += 5) {
        for (AttrId a : {posx, health}) {
          if (a != Schema::kInvalidAttr) {
            table.Set(r, a, table.Get(r, a) + 1.0);
          }
        }
      }
    }
  }

  {  // Sharing over indexed, over two ticks (the second after the
     // demotions the first tick's keys earn): twin stacks, one probed
     // lane by lane and one by batch, must agree on every result and on
     // every deterministic memo counter (calls, entries, demotions).
    struct Stack {
      explicit Stack(const Script& script) : interp(script) {}
      Interpreter interp;
      std::unique_ptr<IndexedAggregateProvider> inner;
      SharingContext ctx;
      std::unique_ptr<SharingAggregateProvider> sharing;
      obs::MetricsRegistry metrics;
    };
    auto make = [&](Stack* s) {
      auto inner = IndexedAggregateProvider::Create(script, s->interp);
      ASSERT_TRUE(inner.ok()) << inner.status().ToString();
      s->inner = inner.MoveValue();
      auto sharing = SharingAggregateProvider::Create(
          script, s->interp, s->inner.get(), &s->ctx, "seam");
      ASSERT_TRUE(sharing.ok()) << sharing.status().ToString();
      s->sharing = sharing.MoveValue();
      s->ctx.set_num_shards(1);
      s->ctx.BindMetrics(&s->metrics, "sharing.");
      ASSERT_TRUE(s->inner->BuildIndexes(world, rnd).ok());
    };
    Stack lanes(script);
    Stack batches(script);
    make(&lanes);
    make(&batches);
    for (int32_t tick = 0; tick < 2; ++tick) {
      lanes.ctx.BeginTick();
      batches.ctx.BeginTick();
      ForEachSeamBatch(script, batches.interp, world, rnd, seed + tick,
                       [&](SeamBatch* b, const std::string& name) {
                         ExpectBatchMatchesLanes(
                             batches.sharing.get(), lanes.sharing.get(), b,
                             world, rnd,
                             "sharing tick " + std::to_string(tick) + " " +
                                 name);
                       });
    }
    if (all_paths) EXPECT_GT(lanes.ctx.memo_entries(), 0);
    EXPECT_EQ(lanes.metrics.Values(/*deterministic_only=*/true),
              batches.metrics.Values(/*deterministic_only=*/true));
  }
}

class SeamAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeamAgreement, BattleAggregatesBatchLikeTheyProbe) {
  ExpectSeamAgreement(Compile(BattleScriptSource()), BattleWorld(GetParam()),
                      GetParam(), true);
}

TEST_P(SeamAgreement, FusionCornerCasesBatchLikeTheyProbe) {
  ExpectSeamAgreement(Compile(kFusionScript), BattleWorld(GetParam()),
                      GetParam(), true);
}

// Probe filters (u-only conjuncts) that fail for part of the army, on
// every index kind: a failed filter must yield the empty-set result from
// the batch columns exactly as from per-unit evaluation.
constexpr const char* kProbeFilterScript = R"(
  aggregate FoesIfNotArcher(u, r) {
    select count(*) as n, avg(e.health) as h from E e
    where e.player <> u.player and u.unittype <> 1
      and e.posx >= u.posx - r and e.posx <= u.posx + r
      and e.posy >= u.posy - r and e.posy <= u.posy + r;
  }
  aggregate TeamIfNotArcher(u) {
    select sum(e.health) as h, count(*) as n from E e
    where e.player = u.player and u.unittype <> 1;
  }
  aggregate WeakestFoeIfKnight(u, r) {
    select argmin(e.health) from E e
    where e.player <> u.player and u.unittype = 0 and r > 4
      and e.posx >= u.posx - r and e.posx <= u.posx + r
      and e.posy >= u.posy - r and e.posy <= u.posy + r;
  }
  aggregate NearestFoeIfHealer(u) {
    select nearest(*) from E e
    where e.player <> u.player and (u.unittype = 2 or u.cooldown > 0);
  }
  function main(u) { let a = TeamIfNotArcher(u); }
)";

TEST_P(SeamAgreement, ProbeFiltersBatchLikeTheyProbe) {
  ExpectSeamAgreement(Compile(kProbeFilterScript), BattleWorld(GetParam()),
                      GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeamAgreement, ::testing::Values(1, 2, 3));

TEST(SeamAgreementScenarios, ScenarioScriptsBatchLikeTheyProbe) {
  for (const std::string& name : ScenarioRegistry::Global().List()) {
    ScenarioParams params;
    params.units = 600;
    params.density = 0.03;
    auto sim = ScenarioRegistry::Global().BuildSimulation(name, params,
                                                          SimulationConfig{});
    ASSERT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
    ASSERT_TRUE((*sim)->Run(6).ok()) << name;
    for (int32_t s = 0; s < (*sim)->NumScripts(); ++s) {
      SCOPED_TRACE(name + "/" + (*sim)->session(s).name);
      ExpectSeamAgreement((*sim)->session(s).script, (*sim)->table(), 5 + s,
                          false);
    }
  }
}

TEST(ActionSink, ClassifiesBattleActions) {
  Script script = Compile(BattleScriptSource());
  Interpreter interp(script);
  auto sink = IndexedActionSink::Create(script, interp);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  std::string plan = (*sink)->DescribePlan();
  // Strike/Fire/Move resolve by key; the healing aura defers to the ⊕
  // index; nothing in the battle script needs the scan fallback.
  EXPECT_NE(std::string::npos, plan.find("direct-key"));
  EXPECT_NE(std::string::npos, plan.find("area-of-effect"));
  EXPECT_EQ(std::string::npos, plan.find("scan("));
}

TEST(ActionSink, VariableExtentAuraFallsBack) {
  Script script = Compile(R"(
    action VariableAura(u, r) {
      update e where e.player = u.player
        and e.posx >= u.posx - r and e.posx <= u.posx + r
        and e.posy >= u.posy - r and e.posy <= u.posy + r
        set inaura max= 3;
    }
    function main(u) { perform VariableAura(u, 4); }
  )");
  Interpreter interp(script);
  auto sink = IndexedActionSink::Create(script, interp);
  ASSERT_TRUE(sink.ok());
  // Per-performer extents break the probe inversion; the sink must refuse.
  EXPECT_NE(std::string::npos, (*sink)->DescribePlan().find("scan("));
}

TEST(ActionSink, EffectValueDependingOnTargetFallsBack) {
  Script script = Compile(R"(
    action Drain(u) {
      update e where e.player = u.player
        and e.posx >= u.posx - 4 and e.posx <= u.posx + 4
        and e.posy >= u.posy - 4 and e.posy <= u.posy + 4
        set damage += e.health / 10;
    }
    function main(u) { perform Drain(u); }
  )");
  Interpreter interp(script);
  auto sink = IndexedActionSink::Create(script, interp);
  ASSERT_TRUE(sink.ok());
  EXPECT_NE(std::string::npos,
            (*sink)->DescribePlan().find("depends on the affected unit"));
}

}  // namespace
}  // namespace sgl
