// Environment substrate tests: schema tags, table operations, and the
// algebraic laws of the combination operator ⊕ (Section 4.2, Eq. (3)).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "env/delta.h"
#include "env/effect_buffer.h"
#include "env/key_index.h"
#include "env/schema.h"
#include "env/table.h"
#include "env/value.h"
#include "util/rng.h"

namespace sgl {
namespace {

Schema BattleSchema() {
  // The schema of Eq. (1), abridged.
  Schema s;
  EXPECT_TRUE(s.AddAttribute("player", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("health", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("damage", CombineType::kSum).ok());
  EXPECT_TRUE(s.AddAttribute("inaura", CombineType::kMax).ok());
  EXPECT_TRUE(s.AddAttribute("setspeed", CombineType::kSet).ok());
  return s;
}

TEST(Schema, KeyIsAlwaysFirstAndConst) {
  Schema s;
  EXPECT_EQ(1, s.NumAttrs());
  EXPECT_EQ("key", s.attr(kKeyAttrId).name);
  EXPECT_EQ(CombineType::kConst, s.attr(kKeyAttrId).combine);
}

TEST(Schema, FindAndDuplicates) {
  Schema s = BattleSchema();
  EXPECT_EQ(5, s.Find("damage"));
  EXPECT_EQ(Schema::kInvalidAttr, s.Find("missing"));
  EXPECT_TRUE(s.Has("inaura"));
  auto dup = s.AddAttribute("damage", CombineType::kSum);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, dup.status().code());
}

TEST(Schema, EffectAndStatePartition) {
  Schema s = BattleSchema();
  std::vector<AttrId> effects = s.EffectAttrs();
  std::vector<AttrId> state = s.StateAttrs();
  EXPECT_EQ(3u, effects.size());
  EXPECT_EQ(5u, state.size());  // key, player, posx, posy, health
  EXPECT_EQ(static_cast<size_t>(s.NumAttrs()), effects.size() + state.size());
}

TEST(Schema, CombineIdentityAndFold) {
  EXPECT_EQ(0.0, CombineIdentity(CombineType::kSum));
  EXPECT_EQ(-std::numeric_limits<double>::infinity(),
            CombineIdentity(CombineType::kMax));
  EXPECT_EQ(std::numeric_limits<double>::infinity(),
            CombineIdentity(CombineType::kMin));
  EXPECT_EQ(7.0, CombineFold(CombineType::kSum, 3.0, 4.0));
  EXPECT_EQ(4.0, CombineFold(CombineType::kMax, 3.0, 4.0));
  EXPECT_EQ(3.0, CombineFold(CombineType::kMin, 3.0, 4.0));
}

TEST(Schema, ToStringShowsTags) {
  Schema s = BattleSchema();
  std::string str = s.ToString();
  EXPECT_NE(std::string::npos, str.find("damage:sum"));
  EXPECT_NE(std::string::npos, str.find("inaura:max"));
  EXPECT_EQ(std::string::npos, str.find("player:"));  // const untagged
}

TEST(Value, ScalarAndVec) {
  Value s(3.5);
  EXPECT_TRUE(s.is_scalar());
  EXPECT_EQ(3.5, s.scalar());
  Value v(Vec2{1, 2});
  EXPECT_TRUE(v.is_vec());
  EXPECT_EQ(1.0, v.vec().x);
  EXPECT_FALSE(s == v);
  EXPECT_TRUE(Value(3.5) == s);
  Vec2 sum = Vec2{1, 2} + Vec2{3, 4};
  EXPECT_EQ(Vec2(4, 6), sum);
  EXPECT_EQ(5.0, Vec2(3, 4).Norm());
  EXPECT_EQ(25.0, Vec2(3, 4).SquaredNorm());
}

TEST(Table, AddGetSetRemove) {
  EnvironmentTable t(BattleSchema());
  auto k0 = t.AddRow({0, 10, 20, 100, 0, 0, 0});
  auto k1 = t.AddRow({1, 30, 40, 80, 0, 0, 0});
  ASSERT_TRUE(k0.ok() && k1.ok());
  EXPECT_EQ(2, t.NumRows());
  EXPECT_EQ(0, *k0);
  EXPECT_EQ(1, *k1);
  EXPECT_EQ(10.0, t.Get(t.RowOf(*k0), t.schema().Find("posx")));
  t.Set(t.RowOf(*k1), t.schema().Find("health"), 0.0);
  int32_t removed = t.RemoveIf([&](RowId r) {
    return t.Get(r, t.schema().Find("health")) <= 0.0;
  });
  EXPECT_EQ(1, removed);
  EXPECT_EQ(1, t.NumRows());
  EXPECT_FALSE(t.HasKey(*k1));
  EXPECT_TRUE(t.HasKey(*k0));
  // Keys are never reused after removal.
  auto k2 = t.AddRow({0, 1, 1, 1, 0, 0, 0});
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(2, *k2);
}

TEST(Table, ExplicitKeyAndErrors) {
  EnvironmentTable t(BattleSchema());
  EXPECT_TRUE(t.AddRowWithKey(42, {0, 1, 2, 3, 0, 0, 0}).ok());
  EXPECT_EQ(StatusCode::kAlreadyExists,
            t.AddRowWithKey(42, {0, 1, 2, 3, 0, 0, 0}).code());
  EXPECT_EQ(StatusCode::kInvalidArgument, t.AddRowWithKey(43, {1, 2}).code());
  // Auto keys continue above explicit ones.
  auto k = t.AddRow({0, 1, 1, 1, 0, 0, 0});
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(43, *k);
}

TEST(Table, RemoveCompactsAndRemapsRows) {
  EnvironmentTable t(BattleSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AddRow({0, double(i), 0, 100, 0, 0, 0}).ok());
  }
  t.RemoveIf([&](RowId r) { return t.KeyAt(r) % 2 == 0; });
  EXPECT_EQ(5, t.NumRows());
  for (RowId r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(t.KeyAt(r) % 2, 1);
    EXPECT_EQ(r, t.RowOf(t.KeyAt(r)));
  }
}

// The table's key index against a std::unordered_map oracle under seeded
// churn: auto and explicit keys (negative and huge ones too), removals of
// random subsets, and lookups of live, removed and never-seen keys. The
// oracle follows the rows independently: RemoveIf keeps survivors in
// order.
TEST(Table, KeyIndexMatchesAnOracleUnderChurn) {
  EnvironmentTable t(BattleSchema());
  std::vector<int64_t> rows;  // the oracle's key per row
  std::unordered_map<int64_t, RowId> oracle;
  Xoshiro256 rng(4242);
  for (int32_t round = 0; round < 60; ++round) {
    const int32_t adds = static_cast<int32_t>(rng.NextBounded(80));
    for (int32_t i = 0; i < adds; ++i) {
      if (rng.NextBounded(4) == 0) {
        const int64_t key = rng.NextBounded(2) == 0
                                ? static_cast<int64_t>(rng.Next())
                                : static_cast<int64_t>(rng.NextBounded(4000)) -
                                      100;
        const bool fresh = oracle.count(key) == 0;
        const Status st = t.AddRowWithKey(key, {0, 1, 2, 3, 0, 0, 0});
        ASSERT_EQ(fresh, st.ok()) << st.ToString();
        if (!fresh) continue;
        oracle[key] = static_cast<RowId>(rows.size());
        rows.push_back(key);
      } else {
        auto key = t.AddRow({0, 1, 2, 3, 0, 0, 0});
        ASSERT_TRUE(key.ok());
        oracle[*key] = static_cast<RowId>(rows.size());
        rows.push_back(*key);
      }
    }
    const uint64_t drop = 2 + rng.NextBounded(5);
    const uint64_t salt = rng.Next();
    auto gone = [&](int64_t key) {
      return (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull ^ salt) %
                 drop ==
             0;
    };
    t.RemoveIf([&](RowId r) { return gone(t.KeyAt(r)); });
    std::vector<int64_t> survivors;
    for (int64_t key : rows) {
      if (gone(key)) {
        oracle.erase(key);
      } else {
        oracle[key] = static_cast<RowId>(survivors.size());
        survivors.push_back(key);
      }
    }
    rows.swap(survivors);

    ASSERT_EQ(static_cast<RowId>(rows.size()), t.NumRows());
    for (RowId r = 0; r < t.NumRows(); ++r) {
      ASSERT_EQ(rows[r], t.KeyAt(r));
      ASSERT_EQ(r, t.RowOf(rows[r]));
    }
    for (int32_t i = 0; i < 200; ++i) {
      const int64_t key = static_cast<int64_t>(rng.NextBounded(4000)) - 100;
      auto it = oracle.find(key);
      ASSERT_EQ(it == oracle.end() ? -1 : it->second, t.RowOf(key));
    }
  }
}

// Deletions whose probe run wraps around the end of the slot array: keys
// homed at the last slots spill into slot 0 onwards, and erasing any of
// them must shift the rest of the run back across the wrap.
TEST(KeyIndex, EraseAcrossTheWrapKeepsEveryLookup) {
  KeyIndex index;
  index.Reserve(64);
  const size_t cap = index.capacity();
  ASSERT_GE(cap, 128u);
  // Keys homed at each of the last two slots and at slots 0 and 1.
  std::vector<int64_t> at_end, at_start;
  for (int64_t key = 0; at_end.size() < 6 || at_start.size() < 4; ++key) {
    const size_t home = index.HomeSlot(key);
    if (home >= cap - 2 && at_end.size() < 6) at_end.push_back(key);
    if (home <= 1 && at_start.size() < 4) at_start.push_back(key);
  }
  for (int32_t order = 0; order < 4; ++order) {
    KeyIndex idx;
    idx.Reserve(64);
    std::unordered_map<int64_t, int32_t> oracle;
    int32_t row = 0;
    // Interleave the two groups so runs from both sides of the wrap mix.
    for (size_t i = 0; i < std::max(at_end.size(), at_start.size()); ++i) {
      for (const std::vector<int64_t>* group : {&at_end, &at_start}) {
        if (i >= group->size()) continue;
        idx.Put((*group)[i], row);
        oracle[(*group)[i]] = row++;
      }
    }
    ASSERT_EQ(cap, idx.capacity());
    // Erase in a different order each round: front of the run, middle,
    // and keys homed after the wrap first.
    std::vector<int64_t> victims(at_end);
    victims.insert(victims.end(), at_start.begin(), at_start.end());
    std::rotate(victims.begin(), victims.begin() + 3 * order,
                victims.end());
    for (int64_t victim : victims) {
      idx.Erase(victim);
      oracle.erase(victim);
      ASSERT_EQ(oracle.size(), idx.size());
      for (int64_t key : at_end) {
        auto it = oracle.find(key);
        ASSERT_EQ(it == oracle.end() ? -1 : it->second, idx.Find(key));
      }
      for (int64_t key : at_start) {
        auto it = oracle.find(key);
        ASSERT_EQ(it == oracle.end() ? -1 : it->second, idx.Find(key));
      }
    }
    // Erasing an absent key and re-adding the removed ones both work.
    idx.Erase(at_end[0]);
    for (size_t i = 0; i < at_end.size(); ++i) {
      idx.Put(at_end[i], static_cast<int32_t>(100 + i));
    }
    for (size_t i = 0; i < at_end.size(); ++i) {
      ASSERT_EQ(static_cast<int32_t>(100 + i), idx.Find(at_end[i]));
    }
  }
}

TEST(Table, CloneEqualsAndDiff) {
  EnvironmentTable t(BattleSchema());
  ASSERT_TRUE(t.AddRow({0, 1, 2, 100, 0, 0, 0}).ok());
  EnvironmentTable u = t.Clone();
  EXPECT_TRUE(t.Equals(u));
  EXPECT_EQ("", t.DiffString(u));
  u.Set(0, u.schema().Find("health"), 99);
  EXPECT_FALSE(t.Equals(u));
  EXPECT_NE("", t.DiffString(u));
}

TEST(Table, ResetEffectsZeroesEffectColumns) {
  EnvironmentTable t(BattleSchema());
  ASSERT_TRUE(t.AddRow({0, 1, 2, 100, 5, 3, 2}).ok());
  t.ResetEffects();
  EXPECT_EQ(0.0, t.Get(0, t.schema().Find("damage")));
  EXPECT_EQ(0.0, t.Get(0, t.schema().Find("inaura")));
  EXPECT_EQ(0.0, t.Get(0, t.schema().Find("setspeed")));
  EXPECT_EQ(100.0, t.Get(0, t.schema().Find("health")));  // state untouched
}

// ------------------------------------------------------- storage window

/// A delta listener that ignores its callbacks: attaching one opens the
/// table's storage window, which is what these tests observe.
class NullListener : public TableDeltaListener {
 public:
  void OnAddRow(int64_t, RowId, const std::vector<double>&) override {}
  void OnRemoveRows(RowId, const std::vector<int64_t>&) override {}
};

/// Four units (keys 0..3, posx = key) with the storage window open.
EnvironmentTable WatchedTable(NullListener* listener) {
  EnvironmentTable t(BattleSchema());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(t.AddRow({0, double(i), 0, 100, 0, 0, 0}).ok());
  }
  t.SetDeltaListener(listener);
  return t;
}

TEST(StorageWindow, MaskMovesWithItsRowWhenAnEarlierRowIsRemoved) {
  NullListener listener;
  EnvironmentTable t = WatchedTable(&listener);
  const AttrId health = t.schema().Find("health");
  t.Set(2, health, 50);
  EXPECT_EQ(1, t.RemoveIf([](RowId r) { return r == 0; }));
  const TableChanges& window = t.storage_changes();
  ASSERT_EQ(std::vector<RowId>{1}, window.dirty_rows);  // key 2 is row 1 now
  EXPECT_EQ(2, t.KeyAt(1));
  EXPECT_EQ(TableChanges::BitOf(health), window.attr_mask(1));
  EXPECT_EQ(0u, window.attr_mask(0));
  EXPECT_EQ(0u, window.attr_mask(2));
  EXPECT_EQ(3u, window.masks.size());
}

TEST(StorageWindow, RowWrittenThenRemovedLeavesNoMask) {
  NullListener listener;
  EnvironmentTable t = WatchedTable(&listener);
  t.Set(1, t.schema().Find("posx"), 9);
  t.RemoveIf([](RowId r) { return r == 1; });
  EXPECT_TRUE(t.storage_changes().dirty_rows.empty());
  for (RowId r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(0u, t.storage_changes().attr_mask(r)) << "row " << r;
  }
}

TEST(StorageWindow, AddRowAfterWritesKeepsTheirMasks) {
  NullListener listener;
  EnvironmentTable t = WatchedTable(&listener);
  const AttrId posx = t.schema().Find("posx");
  t.Set(3, posx, 30);
  ASSERT_TRUE(t.AddRow({1, 5, 5, 100, 0, 0, 0}).ok());
  const TableChanges& window = t.storage_changes();
  EXPECT_EQ(5u, window.masks.size());
  EXPECT_EQ(TableChanges::BitOf(posx), window.attr_mask(3));
  EXPECT_EQ(0u, window.attr_mask(4));
  t.Set(4, posx, 6);
  EXPECT_EQ((std::vector<RowId>{3, 4}), window.dirty_rows);
}

TEST(StorageWindow, RecordsValueChangesUntilCleared) {
  NullListener listener;
  EnvironmentTable t = WatchedTable(&listener);
  const AttrId health = t.schema().Find("health");
  t.Set(1, health, 100);  // the stored value: not a change
  EXPECT_TRUE(t.storage_changes().dirty_rows.empty());
  t.Set(0, health, 1);
  ASSERT_EQ(std::vector<RowId>{0}, t.storage_changes().dirty_rows);
  EXPECT_EQ(TableChanges::BitOf(health), t.storage_changes().attr_mask(0));
  t.ClearStorageChanges();
  EXPECT_TRUE(t.storage_changes().dirty_rows.empty());
  EXPECT_EQ(0u, t.storage_changes().attr_mask(0));
}

TEST(StorageWindow, CloneDropsIt) {
  NullListener listener;
  EnvironmentTable t = WatchedTable(&listener);
  const AttrId posy = t.schema().Find("posy");
  t.Set(1, posy, 4);
  EnvironmentTable copy = t.Clone();
  EXPECT_EQ(nullptr, copy.delta_listener());
  EXPECT_TRUE(copy.storage_changes().dirty_rows.empty());
  EXPECT_TRUE(copy.storage_changes().masks.empty());
  copy.Set(2, posy, 8);  // no window, nothing recorded
  EXPECT_TRUE(copy.storage_changes().dirty_rows.empty());
  EXPECT_EQ(std::vector<RowId>{1}, t.storage_changes().dirty_rows);
}

// ----------------------------------------------------------- EffectBuffer

TEST(EffectBuffer, SumMaxMinSemantics) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("dmg", CombineType::kSum).ok());
  ASSERT_TRUE(s.AddAttribute("aura", CombineType::kMax).ok());
  ASSERT_TRUE(s.AddAttribute("slow", CombineType::kMin).ok());
  EnvironmentTable t(s);
  ASSERT_TRUE(t.AddRow({0, 0, std::numeric_limits<double>::infinity()}).ok());
  EffectBuffer buf;
  buf.Begin(t);
  AttrId dmg = s.Find("dmg"), aura = s.Find("aura"), slow = s.Find("slow");
  buf.Accumulate(0, dmg, 5);
  buf.Accumulate(0, dmg, 7);
  buf.Accumulate(0, aura, 3);
  buf.Accumulate(0, aura, 9);
  buf.Accumulate(0, aura, 6);
  buf.Accumulate(0, slow, 4);
  buf.Accumulate(0, slow, 2);
  buf.ApplyTo(&t);
  EXPECT_EQ(12.0, t.Get(0, dmg));
  EXPECT_EQ(9.0, t.Get(0, aura));
  EXPECT_EQ(2.0, t.Get(0, slow));
}

TEST(EffectBuffer, BaseContributionIsTableValue) {
  // tick(E) = main⊕(E) ⊕ E: the unit's own row participates in ⊕, so a
  // max-effect never drops below its initialized value.
  Schema s;
  ASSERT_TRUE(s.AddAttribute("aura", CombineType::kMax).ok());
  EnvironmentTable t(s);
  ASSERT_TRUE(t.AddRow({0}).ok());
  EffectBuffer buf;
  buf.Begin(t);
  buf.Accumulate(0, s.Find("aura"), -5);
  buf.ApplyTo(&t);
  EXPECT_EQ(0.0, t.Get(0, s.Find("aura")));
}

TEST(EffectBuffer, SetEffectPriorityWins) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("setspeed", CombineType::kSet).ok());
  EnvironmentTable t(s);
  ASSERT_TRUE(t.AddRow({0}).ok());
  AttrId a = s.Find("setspeed");
  EffectBuffer buf;
  buf.Begin(t);
  EXPECT_FALSE(buf.HasSet(0, a));
  buf.AccumulateSet(0, a, 10.0, 1.0);
  buf.AccumulateSet(0, a, 0.0, 5.0);   // higher priority freeze wins
  buf.AccumulateSet(0, a, 99.0, 2.0);  // lower priority ignored
  EXPECT_TRUE(buf.HasSet(0, a));
  EXPECT_EQ(0.0, buf.Get(0, a));
  buf.ApplyTo(&t);
  EXPECT_EQ(0.0, t.Get(0, a));
}

TEST(EffectBuffer, SetEffectTieBreaksByValue) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("sv", CombineType::kSet).ok());
  EnvironmentTable t(s);
  ASSERT_TRUE(t.AddRow({0}).ok());
  EffectBuffer a, b;
  a.Begin(t);
  b.Begin(t);
  AttrId attr = s.Find("sv");
  // Same contributions in opposite order must agree.
  a.AccumulateSet(0, attr, 3.0, 1.0);
  a.AccumulateSet(0, attr, 7.0, 1.0);
  b.AccumulateSet(0, attr, 7.0, 1.0);
  b.AccumulateSet(0, attr, 3.0, 1.0);
  EXPECT_EQ(a.Get(0, attr), b.Get(0, attr));
  EXPECT_EQ(7.0, a.Get(0, attr));
}

// ----------------------------------------------------- DeltaRelation and ⊕

DeltaRelation RandomDelta(const Schema* s, int32_t rows, int32_t key_space,
                          uint64_t seed,
                          const EnvironmentTable& consts_from) {
  // Const attrs must agree per key, so copy them from a reference table.
  Xoshiro256 rng(seed);
  DeltaRelation d(s);
  for (int32_t i = 0; i < rows; ++i) {
    int64_t key = rng.NextBounded(key_space);
    RowId row = consts_from.RowOf(key);
    std::vector<double> vals(s->NumAttrs() - 1);
    for (AttrId a = 1; a < s->NumAttrs(); ++a) {
      if (s->attr(a).combine == CombineType::kConst) {
        vals[a - 1] = consts_from.Get(row, a);
      } else {
        vals[a - 1] = static_cast<double>(rng.NextBounded(100) - 50);
      }
    }
    d.Add(key, std::move(vals));
  }
  return d;
}

class CombineLaws : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    schema_ = BattleSchema();
    table_ = std::make_unique<EnvironmentTable>(schema_);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          table_->AddRow({double(i % 2), double(i), double(i), 100, 0, 0, 0})
              .ok());
    }
  }
  Schema schema_;
  std::unique_ptr<EnvironmentTable> table_;
};

TEST_P(CombineLaws, Idempotence) {
  // ⊕(⊕(R)) = ⊕(R) — Eq. (3) with E2 = ∅.
  DeltaRelation r = RandomDelta(&schema_, 30, 8, GetParam(), *table_);
  DeltaRelation once = r.Combine();
  DeltaRelation twice = once.Combine();
  EXPECT_TRUE(once.EqualsUnordered(twice));
}

TEST_P(CombineLaws, CommutativityOfUnion) {
  DeltaRelation r1 = RandomDelta(&schema_, 20, 8, GetParam() * 3 + 1, *table_);
  DeltaRelation r2 = RandomDelta(&schema_, 20, 8, GetParam() * 5 + 2, *table_);
  DeltaRelation ab = DeltaRelation::UnionAll(r1, r2).Combine();
  DeltaRelation ba = DeltaRelation::UnionAll(r2, r1).Combine();
  EXPECT_TRUE(ab.EqualsUnordered(ba));
}

TEST_P(CombineLaws, Equation3) {
  // ⊕(E1 ⊎ E2) = ⊕(⊕(E1) ⊎ E2).
  DeltaRelation e1 = RandomDelta(&schema_, 25, 8, GetParam() * 7 + 3, *table_);
  DeltaRelation e2 = RandomDelta(&schema_, 25, 8, GetParam() * 11 + 4, *table_);
  DeltaRelation lhs = DeltaRelation::UnionAll(e1, e2).Combine();
  DeltaRelation rhs = DeltaRelation::UnionAll(e1.Combine(), e2).Combine();
  EXPECT_TRUE(lhs.EqualsUnordered(rhs));
}

TEST_P(CombineLaws, FullDistribution) {
  // ⊕(E1 ⊎ E2) = ⊕(⊕(E1) ⊎ ⊕(E2)) — applying Eq. (3) twice.
  DeltaRelation e1 = RandomDelta(&schema_, 25, 8, GetParam() * 13 + 5, *table_);
  DeltaRelation e2 = RandomDelta(&schema_, 25, 8, GetParam() * 17 + 6, *table_);
  DeltaRelation lhs = DeltaRelation::UnionAll(e1, e2).Combine();
  DeltaRelation rhs =
      DeltaRelation::UnionAll(e1.Combine(), e2.Combine()).Combine();
  EXPECT_TRUE(lhs.EqualsUnordered(rhs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombineLaws,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(DeltaRelation, CombineAggregatesPerTag) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("p", CombineType::kConst).ok());
  ASSERT_TRUE(s.AddAttribute("dmg", CombineType::kSum).ok());
  ASSERT_TRUE(s.AddAttribute("aura", CombineType::kMax).ok());
  DeltaRelation d(&s);
  d.Add(1, {7, 10, 3});
  d.Add(1, {7, 5, 9});
  d.Add(2, {8, 1, 1});
  DeltaRelation c = d.Combine();
  ASSERT_EQ(2, c.NumRows());
  EXPECT_EQ(1, c.rows()[0].key);
  EXPECT_EQ(15.0, c.rows()[0].values[1]);  // sum
  EXPECT_EQ(9.0, c.rows()[0].values[2]);   // max
  EXPECT_EQ(2, c.rows()[1].key);
}

TEST(DeltaRelation, FoldIntoMatchesManualAccumulation) {
  Schema s = BattleSchema();
  EnvironmentTable t(s);
  ASSERT_TRUE(t.AddRow({0, 1, 1, 100, 0, 0, 0}).ok());
  ASSERT_TRUE(t.AddRow({1, 2, 2, 100, 0, 0, 0}).ok());
  DeltaRelation d(&s);
  d.Add(0, {0, 1, 1, 100, 12, 4, 0});
  d.Add(0, {0, 1, 1, 100, 3, 8, 0});
  d.Add(1, {1, 2, 2, 100, 1, 0, 0});
  d.Add(99, {0, 0, 0, 0, 5, 0, 0});  // dead unit: ignored
  EffectBuffer buf;
  buf.Begin(t);
  d.FoldInto(t, &buf);
  buf.ApplyTo(&t);
  EXPECT_EQ(15.0, t.Get(0, s.Find("damage")));
  EXPECT_EQ(8.0, t.Get(0, s.Find("inaura")));
  EXPECT_EQ(1.0, t.Get(1, s.Find("damage")));
}

TEST(DeltaRelation, FromTableRoundTrip) {
  Schema s = BattleSchema();
  EnvironmentTable t(s);
  ASSERT_TRUE(t.AddRow({0, 5, 6, 90, 0, 0, 0}).ok());
  DeltaRelation d = DeltaRelation::FromTable(t);
  ASSERT_EQ(1, d.NumRows());
  EXPECT_EQ(0, d.rows()[0].key);
  EXPECT_EQ(5.0, d.rows()[0].values[1]);  // posx
  // ⊕ of a keyed relation is itself (R⊕ = R when K is a key).
  EXPECT_TRUE(d.Combine().EqualsUnordered(d));
}

}  // namespace
}  // namespace sgl
