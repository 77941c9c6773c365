// Optimizer tests: signature extraction (Section 5.3's conjunct
// classification), index-family sharing, and indexed-vs-naive agreement
// at the provider level.
#include <gtest/gtest.h>

#include "engine/simulation.h"
#include "exec/thread_pool.h"
#include "game/battle.h"
#include "opt/action_sink.h"
#include "opt/indexed_provider.h"
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
