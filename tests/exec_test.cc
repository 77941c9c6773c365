// Unit tests for the src/exec/ subsystem: the deterministic ThreadPool /
// ParallelFor primitive and the ShardedEffectBuffer whose chunk-order
// replay underpins the engine's bit-exact parallel decision phase.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "env/effect_buffer.h"
#include "env/table.h"
#include "exec/sharded_effect_buffer.h"
#include "exec/thread_pool.h"
#include "util/timer.h"

namespace sgl {
namespace exec {
namespace {

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPool, NumChunksRespectsGrainAndThreads) {
  ThreadPool pool(4);
  EXPECT_EQ(0, pool.NumChunks(0, 1));
  EXPECT_EQ(1, pool.NumChunks(1, 1));
  EXPECT_EQ(1, pool.NumChunks(10, 100));   // grain floors the chunk size
  EXPECT_EQ(2, pool.NumChunks(150, 100));  // ceil(150/100) = 2 < threads
  EXPECT_EQ(4, pool.NumChunks(1000, 7));   // capped at num_threads
}

TEST(ThreadPool, CoversRangeExactlyOnceInContiguousAscendingChunks) {
  ThreadPool pool(4);
  const int64_t n = 1003;
  std::vector<int32_t> hits(n, 0);
  const int32_t chunks = pool.NumChunks(n, 1);
  std::vector<std::pair<int64_t, int64_t>> bounds(chunks, {-1, -1});
  Status st = pool.ParallelFor(n, 1, [&](int32_t c, int64_t lo, int64_t hi) {
    bounds[c] = {lo, hi};
    for (int64_t i = lo; i < hi; ++i) ++hits[i];  // disjoint ranges: no race
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(1, hits[i]) << "index " << i;
  // Chunk c's range starts where chunk c-1 ended; chunk 0 starts at 0.
  int64_t expect_lo = 0;
  for (int32_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(expect_lo, bounds[c].first) << "chunk " << c;
    EXPECT_GT(bounds[c].second, bounds[c].first);
    expect_lo = bounds[c].second;
  }
  EXPECT_EQ(n, expect_lo);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  bool called = false;
  ASSERT_TRUE(pool.ParallelFor(0, 1,
                               [&](int32_t, int64_t, int64_t) {
                                 called = true;
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReturnsLowestNumberedChunkError) {
  ThreadPool pool(4);
  std::vector<int32_t> ran(4, 0);
  Status st = pool.ParallelFor(4, 1, [&](int32_t c, int64_t, int64_t) {
    ran[c] = 1;
    if (c == 1) return Status::ExecutionError("chunk one failed");
    if (c == 3) return Status::ExecutionError("chunk three failed");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  // Deterministic error reporting: the lowest failing chunk wins, and no
  // chunk is skipped because another one failed.
  EXPECT_NE(std::string::npos, st.message().find("chunk one failed"));
  for (int32_t c = 0; c < 4; ++c) EXPECT_EQ(1, ran[c]) << "chunk " << c;
}

TEST(ThreadPool, InlineParallelForRunsEveryChunkAndReturnsLowestError) {
  // A call nested inside a chunk body runs its chunks inline, one after
  // another; a failing chunk must not skip the later ones, exactly as on
  // the parallel path.
  ThreadPool pool(4);
  std::vector<std::vector<int32_t>> ran(2, std::vector<int32_t>(4, 0));
  std::vector<Status> inner(2);
  Status st = pool.ParallelFor(2, 1, [&](int32_t outer, int64_t, int64_t) {
    inner[outer] =
        pool.ParallelFor(4, 1, [&](int32_t c, int64_t, int64_t) {
          ran[outer][c] = 1;
          if (c == 1) return Status::ExecutionError("chunk one failed");
          if (c == 3) return Status::ExecutionError("chunk three failed");
          return Status::OK();
        });
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (int32_t outer = 0; outer < 2; ++outer) {
    ASSERT_FALSE(inner[outer].ok()) << "outer chunk " << outer;
    EXPECT_NE(std::string::npos,
              inner[outer].message().find("chunk one failed"));
    for (int32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(1, ran[outer][c]) << "outer " << outer << " chunk " << c;
    }
  }

  // A one-thread pool runs everything inline as a single chunk; its error
  // comes back as is.
  ThreadPool solo(1);
  int32_t calls = 0;
  Status solo_st = solo.ParallelFor(10, 1, [&](int32_t, int64_t, int64_t) {
    ++calls;
    return Status::ExecutionError("solo chunk failed");
  });
  EXPECT_EQ(1, calls);
  ASSERT_FALSE(solo_st.ok());
  EXPECT_NE(std::string::npos, solo_st.message().find("solo chunk failed"));
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  // Per outer chunk: the nested call's stats and the busy time its inner
  // chunks measured themselves.
  std::vector<ParallelStats> inner_stats(4);
  std::vector<int64_t> inner_busy_ns(4, 0);
  Status st = pool.ParallelFor(4, 1, [&](int32_t outer, int64_t, int64_t) {
    int64_t local = 0;
    SGL_RETURN_NOT_OK(pool.ParallelFor(
        100, 10,
        [&](int32_t, int64_t lo, int64_t hi) {
          local += hi - lo;  // inline on this worker: no race on local
          const Timer spin;
          while (spin.Nanos() < 200000) {
          }
          inner_busy_ns[outer] += spin.Nanos();
          return Status::OK();
        },
        &inner_stats[outer]));
    total.fetch_add(local);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(400, total.load());
  // All four inner chunks ran on one thread, one after another: the stats
  // report one worker busy for their summed time, not four in parallel.
  for (int32_t outer = 0; outer < 4; ++outer) {
    EXPECT_EQ(1, inner_stats[outer].workers) << "outer chunk " << outer;
    EXPECT_GE(inner_stats[outer].max_worker_ns, inner_busy_ns[outer])
        << "outer chunk " << outer;
  }
}

TEST(ThreadPool, SingleThreadPoolRunsOnCallerInChunkOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int32_t> order;
  Status st = pool.ParallelFor(10, 2, [&](int32_t c, int64_t, int64_t) {
    EXPECT_EQ(caller, std::this_thread::get_id());
    order.push_back(c);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(1u, order.size());  // one thread, grain 2 -> 1 chunk of 10
  EXPECT_EQ(0, order[0]);
}

TEST(ThreadPool, ParallelStatsReportChunksAndSlowestWorker) {
  ThreadPool pool(3);
  ParallelStats stats;
  Status st = pool.ParallelFor(
      300, 1,
      [&](int32_t, int64_t lo, int64_t hi) {
        volatile double sink = 0.0;
        for (int64_t i = lo * 2000; i < hi * 2000; ++i) {
          sink = sink + static_cast<double>(i);
        }
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(3, stats.workers);
  EXPECT_GT(stats.max_worker_ns, 0);
  // Stats accumulate across calls.
  ASSERT_TRUE(pool.ParallelFor(
                      3, 1,
                      [](int32_t, int64_t, int64_t) { return Status::OK(); },
                      &stats)
                  .ok());
  EXPECT_EQ(3, stats.workers);
}

TEST(ThreadPool, ReusableAcrossManyParallelForCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    ASSERT_TRUE(pool.ParallelFor(64, 4,
                                 [&](int32_t, int64_t lo, int64_t hi) {
                                   int64_t s = 0;
                                   for (int64_t i = lo; i < hi; ++i) s += i;
                                   sum.fetch_add(s);
                                   return Status::OK();
                                 })
                    .ok());
    ASSERT_EQ(64 * 63 / 2, sum.load()) << "round " << round;
  }
}

// ----------------------------------------------------- ShardedEffectBuffer

Schema EffectSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("hp", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("dmg", CombineType::kSum).ok());
  EXPECT_TRUE(s.AddAttribute("aura", CombineType::kMax).ok());
  EXPECT_TRUE(s.AddAttribute("slow", CombineType::kMin).ok());
  EXPECT_TRUE(s.AddAttribute("freeze", CombineType::kSet).ok());
  return s;
}

EnvironmentTable SmallTable(const Schema& s, int32_t rows) {
  EnvironmentTable table(s);
  for (int32_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(table.AddRow({10.0 + r, 0.0, 0.0, 0.0, 0.0}).ok());
  }
  table.ResetEffects();
  return table;
}

struct TestOp {
  RowId row;
  const char* attr;
  bool is_set;
  double value;
  double priority;
};

void Apply(EffectSink* sink, const Schema& s, const TestOp& op) {
  AttrId a = s.Find(op.attr);
  if (op.is_set) {
    sink->AccumulateSet(op.row, a, op.value, op.priority);
  } else {
    sink->Accumulate(op.row, a, op.value);
  }
}

TEST(ShardedEffectBuffer, ChunkOrderReplayIsBitExactVsSequential) {
  Schema s = EffectSchema();
  EnvironmentTable table = SmallTable(s, 4);

  // Deliberately non-dyadic doubles: their sum depends on fold order, so
  // this test fails if the merge ever reassociates kSum contributions
  // instead of replaying the exact sequential call sequence.
  const std::vector<TestOp> ops = {
      {0, "dmg", false, 0.1, 0},    {1, "aura", false, 2.5, 0},
      {0, "dmg", false, 0.2, 0},    {2, "slow", false, 7.0, 0},
      {0, "dmg", false, 0.3, 0},    {3, "freeze", true, 5.0, 1.0},
      {1, "dmg", false, 1.0 / 3},   {0, "dmg", false, 0.7, 0},
      {3, "freeze", true, 9.0, 1.0},{2, "slow", false, 3.0, 0},
      {1, "dmg", false, 2.0 / 3},   {1, "aura", false, 2.4, 0},
      {0, "dmg", false, 1e-9, 0},   {3, "freeze", true, 2.0, 4.0},
      {2, "dmg", false, 0.1, 0},
  };

  // Reference: one buffer, ops applied in global order.
  EffectBuffer reference;
  reference.Begin(table);
  for (const TestOp& op : ops) Apply(&reference, s, op);

  // Sharded: the same sequence split into 3 contiguous chunks.
  ShardedEffectBuffer sharded(3);
  for (size_t i = 0; i < ops.size(); ++i) {
    Apply(sharded.shard(static_cast<int32_t>(i / 5)), s, ops[i]);
  }
  EXPECT_EQ(static_cast<int64_t>(ops.size()), sharded.total_ops());
  EffectBuffer merged;
  merged.Begin(table);
  sharded.MergeInto(&merged);

  for (RowId r = 0; r < table.NumRows(); ++r) {
    for (const char* attr : {"dmg", "aura", "slow", "freeze"}) {
      AttrId a = s.Find(attr);
      EXPECT_EQ(reference.Get(r, a), merged.Get(r, a))
          << attr << " row " << r;
    }
    AttrId freeze = s.Find("freeze");
    EXPECT_EQ(reference.HasSet(r, freeze), merged.HasSet(r, freeze));
  }
  // The freeze ties at priority 1 resolve to the larger value, then the
  // higher priority 4 wins outright — in both implementations.
  EXPECT_EQ(2.0, merged.Get(3, s.Find("freeze")));
}

TEST(ShardedEffectBuffer, SetPriorityTiesAreShardOrderIndependent) {
  Schema s = EffectSchema();
  EnvironmentTable table = SmallTable(s, 1);
  AttrId freeze = s.Find("freeze");

  // The same tied contributions, landing on different shards in the two
  // buffers: max-priority with larger-value tie-break is commutative, so
  // both merges must agree.
  ShardedEffectBuffer forward(2), backward(2);
  forward.shard(0)->AccumulateSet(0, freeze, 3.0, 2.0);
  forward.shard(1)->AccumulateSet(0, freeze, 8.0, 2.0);
  backward.shard(0)->AccumulateSet(0, freeze, 8.0, 2.0);
  backward.shard(1)->AccumulateSet(0, freeze, 3.0, 2.0);

  EffectBuffer a, b;
  a.Begin(table);
  b.Begin(table);
  forward.MergeInto(&a);
  backward.MergeInto(&b);
  EXPECT_EQ(a.Get(0, freeze), b.Get(0, freeze));
  EXPECT_EQ(8.0, a.Get(0, freeze));
}

TEST(EffectShard, ClearEmptiesTheLog) {
  Schema s = EffectSchema();
  EnvironmentTable table = SmallTable(s, 1);
  EffectShard shard;
  shard.Accumulate(0, s.Find("dmg"), 4.0);
  EXPECT_EQ(1, shard.num_ops());
  shard.Clear();
  EXPECT_EQ(0, shard.num_ops());
  EffectBuffer buffer;
  buffer.Begin(table);
  shard.ReplayInto(&buffer);
  EXPECT_EQ(0.0, buffer.Get(0, s.Find("dmg")));
}

}  // namespace
}  // namespace exec
}  // namespace sgl
