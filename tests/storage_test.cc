// Durable-world tests (src/storage/): the ISSUE-10 acceptance matrix.
//
//  * Bit-exactness: a storage-backed run is identical to the in-memory
//    run — tables and deterministic metrics — for every registered
//    scenario x {naive, indexed, adaptive} x threads {1, 4}.
//  * Crash recovery: a run hard-killed mid-tick-stream (fork + _exit, no
//    destructors, no final checkpoint) reopens, replays the WAL, and
//    continues bit-identically to a run that was never interrupted.
//    Table edits made between ticks (AddRow, Set) survive a checkpoint
//    and the WAL ticks after it.
//  * Corruption: a flipped page byte, a flipped WAL byte, a log of
//    another WAL version, or a WAL cell run naming an attribute outside
//    the schema or rows past the table is refused with kInvalidArgument;
//    a torn WAL tail (truncation) silently drops the partial tick and
//    recovers to the last committed one.
//  * Tiny pages: 128-byte pages (a few rows each) complete a 100-tick
//    scenario with checkpoints, still bit-exact.
//  * Time travel: Materialize/RestoreFrom(dir, tick) rebuilds any
//    logged tick; re-running from it reproduces the original future.
//  * Tracing: each tick's commit is one storage.commit span inside it.
//  * Checkpoints outside the storage path: the same store format, a
//    bit-exact round trip, a corrupt manifest refused, an overwrite that
//    leaves the published image intact until its manifest lands, a
//    stale inlet temp file ignored, and a log of another WAL version
//    refused on restore but replaced by a checkpoint.
//  * O(delta) checkpoints: ticks never write pages.sgl, and a checkpoint
//    after one cell write rewrites only that page's scratch slot.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "storage/world_store.h"

namespace sgl {
namespace {

using storage::PageFile;
using storage::WalFile;
using storage::WalRecord;
using storage::WalRecordType;
using storage::WorldStore;

// Wire-format sizes from wal.h's layout comment: 16-byte file header,
// 13-byte record frame (u32 len + u8 type + u64 checksum) before each
// body. Used to aim corruption at known offsets.
constexpr int64_t kWalHeader = 16;
constexpr int64_t kWalFrame = 13;

ScenarioParams SmallParams() {
  ScenarioParams params;
  params.units = 80;
  params.density = 0.02;
  params.seed = 37;
  return params;
}

/// A fresh world directory under the test tmpdir: any files from a
/// previous run of the same test are removed first, so Build() never
/// sees a stale manifest it would refuse to tick over.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  for (const char* f :
       {"pages.sgl", "wal.sgl", "MANIFEST.sgl", "MANIFEST.sgl.tmp",
        "inlet.sgl", "inlet.sgl.tmp", "trace.json", "metrics.json",
        "flight_record.json"}) {
    std::remove((dir + "/" + f).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

SimulationConfig StorageConfigFor(const std::string& dir, EvaluatorMode mode,
                                  int32_t threads,
                                  int64_t checkpoint_every = 0) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = threads;
  config.storage.path = dir;
  config.storage.page_size = 512;  // small pages: many of them, real churn
  config.storage.checkpoint_every = checkpoint_every;
  return config;
}

std::unique_ptr<Simulation> BuildScenario(const std::string& name,
                                          const SimulationConfig& config) {
  auto sim =
      ScenarioRegistry::Global().BuildSimulation(name, SmallParams(), config);
  EXPECT_TRUE(sim.ok()) << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

// ------------------------------------------------------------ page units

TEST(PageFileTest, RoundTripsAndRejectsCorruption) {
  const std::string dir = FreshDir("pagefile_unit");
  ASSERT_TRUE(storage::MakeDirs(dir).ok());
  const int32_t page_size = 256;
  PageFile file;
  ASSERT_TRUE(file.Open(dir + "/pages.sgl", page_size).ok());

  std::vector<uint8_t> page(page_size, 0);
  for (int i = 0; i < 16; ++i) {
    page[storage::kPageHeaderBytes + i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(file.WriteSlot(3, 0, page.data()).ok());

  std::vector<uint8_t> back(page_size, 0xff);
  ASSERT_TRUE(file.ReadSlot(3, 0, back.data(), false).ok());
  EXPECT_EQ(0, std::memcmp(page.data() + storage::kPageHeaderBytes,
                           back.data() + storage::kPageHeaderBytes, 16));

  // A hole reads as zeroes only when the caller says missing is fine.
  EXPECT_FALSE(file.ReadSlot(9, 0, back.data(), false).ok());
  ASSERT_TRUE(file.ReadSlot(9, 0, back.data(), true).ok());

  // Flip one payload byte on disk: the checksum must catch it.
  {
    std::fstream f(dir + "/pages.sgl",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(3 * 2 * page_size + storage::kPageHeaderBytes + 5);
    char b = 0x55;
    f.write(&b, 1);
  }
  Status st = file.ReadSlot(3, 0, back.data(), false);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos, st.ToString().find("checksum"));
}

TEST(WalFileTest, AppendsReadsAndDistinguishesTornFromCorrupt) {
  const std::string dir = FreshDir("wal_unit");
  ASSERT_TRUE(storage::MakeDirs(dir).ok());
  const std::string path = dir + "/wal.sgl";
  WalFile wal;
  ASSERT_TRUE(wal.Open(path).ok());
  EXPECT_EQ(0, wal.checkpoint_tick());

  std::string body;
  storage::WalAppendLE(&body, 42, 8);
  ASSERT_TRUE(wal.Append(WalRecordType::kTickBegin, body, nullptr).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kTickCommit, body, nullptr).ok());

  std::vector<WalRecord> records;
  bool torn = false;
  ASSERT_TRUE(wal.ReadAll(&records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(WalRecordType::kTickBegin, records[0].type);
  EXPECT_EQ(body, records[0].body);

  // Truncation mid-frame is a torn tail — tolerated, partial data gone.
  struct stat sb;
  ASSERT_EQ(0, ::stat(path.c_str(), &sb));
  ASSERT_EQ(0, ::truncate(path.c_str(), sb.st_size - 3));
  records.clear();
  ASSERT_TRUE(wal.ReadAll(&records, &torn).ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(1u, records.size());

  // A flipped byte inside a complete frame is corruption — refused.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(kWalHeader + kWalFrame + 2);
    char b = 0x7f;
    f.write(&b, 1);
  }
  records.clear();
  Status st = wal.ReadAll(&records, &torn);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos, st.ToString().find("checksum"));
}

TEST(WalFileTest, RefusesALogOfAnotherVersion) {
  const std::string dir = FreshDir("wal_v1_unit");
  ASSERT_TRUE(storage::MakeDirs(dir).ok());
  const std::string path = dir + "/wal.sgl";
  {
    // A version-1 header: magic, u16 version, u64 checkpoint tick.
    std::string header = "SGLWAL";
    storage::WalAppendLE(&header, 1, 2);
    storage::WalAppendLE(&header, 0, 8);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
  }
  WalFile wal;
  Status st = wal.Open(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos, st.ToString().find("unsupported version 1"))
      << st.ToString();
}

// ------------------------------------------------------------- validation

TEST(StorageConfigTest, ValidateRejectsBadValues) {
  SimulationConfig config;
  config.storage.path = "somewhere";
  config.storage.page_size = 32;  // below the floor
  EXPECT_EQ(StatusCode::kInvalidArgument, config.Validate().code());
  config.storage.page_size = 8192;
  config.storage.checkpoint_every = -1;
  EXPECT_EQ(StatusCode::kInvalidArgument, config.Validate().code());
  config.storage.checkpoint_every = 0;
  EXPECT_TRUE(config.Validate().ok());

  config.artifacts.flight_recorder_ticks = -3;
  Status st = config.Validate();
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos,
            st.ToString().find("artifacts.flight_recorder_ticks"));
}

// ------------------------------------------------- bit-exactness matrix

TEST(StorageBitExactTest, MatchesInMemoryAcrossTheMatrix) {
  const int64_t kTicks = 25;
  for (const std::string& scenario : ScenarioRegistry::Global().List()) {
    for (EvaluatorMode mode : {EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
                               EvaluatorMode::kAdaptive}) {
      for (int32_t threads : {1, 4}) {
        SCOPED_TRACE(scenario + " mode=" +
                     std::to_string(static_cast<int>(mode)) +
                     " threads=" + std::to_string(threads));
        SimulationConfig mem_config;
        mem_config.eval_mode = mode;
        mem_config.threads = threads;
        auto mem = BuildScenario(scenario, mem_config);
        ASSERT_NE(nullptr, mem);
        ASSERT_TRUE(mem->Run(kTicks).ok());

        const std::string dir = FreshDir("matrix_world");
        auto durable = BuildScenario(
            scenario,
            StorageConfigFor(dir, mode, threads, /*checkpoint_every=*/7));
        ASSERT_NE(nullptr, durable);
        ASSERT_TRUE(durable->Run(kTicks).ok());

        EXPECT_TRUE(durable->table().Equals(mem->table()))
            << durable->table().DiffString(mem->table());
        EXPECT_EQ(durable->MetricsJson(/*deterministic_only=*/true),
                  mem->MetricsJson(/*deterministic_only=*/true));

        // And the durable world recovers to exactly the final state.
        auto reopened =
            BuildScenario(scenario, StorageConfigFor(dir, mode, threads));
        ASSERT_NE(nullptr, reopened);
        ASSERT_TRUE(reopened->RestoreFrom(dir).ok());
        EXPECT_EQ(kTicks, reopened->tick_count());
        EXPECT_TRUE(reopened->table().Equals(mem->table()))
            << reopened->table().DiffString(mem->table());
      }
    }
  }
}

// ------------------------------------------------------- crash recovery

TEST(StorageRecoveryTest, KillAndRecoverResumesBitExactly) {
  const int64_t kKillAfter = 13;  // not a checkpoint boundary
  const int64_t kTotal = 30;
  for (EvaluatorMode mode : {EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
                             EvaluatorMode::kAdaptive}) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    const std::string dir = FreshDir("kill_world");

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: tick past a checkpoint, then die without destructors —
      // no flush, no final checkpoint, exactly like a crash.
      auto victim = ScenarioRegistry::Global().BuildSimulation(
          "battle", SmallParams(),
          StorageConfigFor(dir, mode, /*threads=*/1,
                           /*checkpoint_every=*/5));
      if (!victim.ok() || !(*victim)->Run(kKillAfter).ok()) _exit(7);
      _exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(pid, waitpid(pid, &wstatus, 0));
    ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);

    // Survivor: reopen, recover the latest durable tick, run on.
    auto survivor = BuildScenario(
        "battle",
        StorageConfigFor(dir, mode, /*threads=*/1, /*checkpoint_every=*/5));
    ASSERT_NE(nullptr, survivor);
    ASSERT_TRUE(survivor->RestoreFrom(dir).ok());
    EXPECT_EQ(kKillAfter, survivor->tick_count());
    ASSERT_TRUE(survivor->Run(kTotal - kKillAfter).ok());

    SimulationConfig mem_config;
    mem_config.eval_mode = mode;
    auto uninterrupted = BuildScenario("battle", mem_config);
    ASSERT_NE(nullptr, uninterrupted);
    ASSERT_TRUE(uninterrupted->Run(kTotal).ok());
    EXPECT_TRUE(survivor->table().Equals(uninterrupted->table()))
        << survivor->table().DiffString(uninterrupted->table());
  }
}

TEST(StorageRecoveryTest, BuildRefusesToTickOverAnUnrestoredWorld) {
  const std::string dir = FreshDir("unrestored_world");
  {
    auto sim = BuildScenario(
        "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
    ASSERT_NE(nullptr, sim);
    ASSERT_TRUE(sim->Run(5).ok());
    const obs::Counter* fsyncs =
        sim->mutable_metrics()->GetCounter("storage.fsyncs");
    const int64_t before = fsyncs->value();
    ASSERT_TRUE(sim->Checkpoint(dir).ok());
    // One checkpoint fsyncs the page file, the manifest temp file, the
    // directory holding the renamed manifest, and the reset WAL.
    EXPECT_EQ(4, fsyncs->value() - before);
  }
  auto sim = BuildScenario(
      "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
  ASSERT_NE(nullptr, sim);
  Status st = sim->Tick();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.ToString().find("RestoreFrom"));
  // Explicitly checkpointing over it re-arms ticking from the new state.
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  EXPECT_TRUE(sim->Tick().ok());
}

/// Run 4 ticks, edit the table between ticks with `edit`, checkpoint,
/// run 3 more ticks, then recover the world into a fresh simulation and
/// expect exactly the live table.
void ExpectBetweenTickEditRecovers(
    const std::string& name,
    const std::function<void(EnvironmentTable*)>& edit) {
  const std::string dir = FreshDir(name);
  EnvironmentTable expected{Schema()};
  {
    auto sim = BuildScenario(
        "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
    ASSERT_NE(nullptr, sim);
    ASSERT_TRUE(sim->Run(4).ok());
    edit(sim->mutable_table());
    ASSERT_TRUE(sim->Checkpoint(dir).ok());
    ASSERT_TRUE(sim->Run(3).ok());
    expected = sim->table().Clone();
  }
  auto restored = BuildScenario(
      "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
  ASSERT_NE(nullptr, restored);
  Status st = restored->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(7, restored->tick_count());
  EXPECT_TRUE(restored->table().Equals(expected))
      << restored->table().DiffString(expected);
}

TEST(StorageRecoveryTest, RowAddedBetweenTicksIsNotReplayedTwice) {
  // The checkpoint image holds the new row, so the WAL ticks after it
  // must not add it again.
  ExpectBetweenTickEditRecovers("between_ticks_add", [](EnvironmentTable* t) {
    std::vector<double> values;
    for (AttrId a = 1; a < t->schema().NumAttrs(); ++a) {
      values.push_back(t->Get(0, a));
    }
    ASSERT_TRUE(t->AddRow(values).ok());
  });
}

TEST(StorageRecoveryTest, CellWrittenBetweenTicksSurvivesCheckpoint) {
  ExpectBetweenTickEditRecovers("between_ticks_set", [](EnvironmentTable* t) {
    const AttrId health = t->schema().Find("health");
    ASSERT_NE(Schema::kInvalidAttr, health);
    t->Set(1, health, t->Get(1, health) + 5.0);
  });
}

TEST(StorageRecoveryTest, TornWalTailRecoversToLastCommittedTick) {
  const std::string dir = FreshDir("torn_world");
  {
    auto sim = BuildScenario(
        "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1,
                                   /*checkpoint_every=*/5));
    ASSERT_NE(nullptr, sim);
    ASSERT_TRUE(sim->Run(13).ok());
  }
  // Tear the tail: drop the last few bytes of the log mid-frame.
  const std::string wal_path = dir + "/wal.sgl";
  struct stat sb;
  ASSERT_EQ(0, ::stat(wal_path.c_str(), &sb));
  ASSERT_EQ(0, ::truncate(wal_path.c_str(), sb.st_size - 5));

  auto store = WorldStore::Open(
      StorageConfigFor(dir, EvaluatorMode::kIndexed, 1).storage, nullptr);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto world = (*store)->Recover();
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  EXPECT_EQ(12, world->tick);  // tick 13's record was the torn one

  // A flipped byte inside the log body, by contrast, is corruption.
  {
    std::fstream f(wal_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(kWalHeader + kWalFrame + 3);
    char b = 0x3c;
    f.write(&b, 1);
  }
  Status st = (*store)->Recover().status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
}

/// Append one CellDeltas run: first row, row count, attr mask, values.
void AppendCellRun(std::string* body, uint64_t first_row, uint64_t row_count,
                   uint64_t mask, const std::vector<double>& values) {
  storage::WalAppendLE(body, first_row, 4);
  storage::WalAppendLE(body, row_count, 4);
  storage::WalAppendLE(body, mask, 8);
  for (double v : values) {
    storage::WalAppendLE(body, storage::PackDouble(v), 8);
  }
}

/// Checkpoint a battle world at tick 3, append one well-framed WAL tick
/// whose CellDeltas record holds a single run that `make_run` writes for
/// the checkpointed table, and return the recovery status.
Status RecoverWithOneCellRun(
    const std::string& name,
    const std::function<void(const EnvironmentTable&, std::string*)>&
        make_run) {
  const std::string dir = FreshDir(name);
  std::string run;
  int64_t next_key = 0;
  int32_t rows = 0;
  {
    auto sim = BuildScenario(
        "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
    if (sim == nullptr) return Status::Internal("build failed");
    SGL_RETURN_NOT_OK(sim->Run(3));
    SGL_RETURN_NOT_OK(sim->Checkpoint(dir));
    make_run(sim->table(), &run);
    next_key = sim->table().next_key();
    rows = sim->table().NumRows();
  }
  {
    WalFile wal;
    SGL_RETURN_NOT_OK(wal.Open(dir + "/wal.sgl"));
    EXPECT_EQ(3, wal.checkpoint_tick());
    std::string body;
    storage::WalAppendLE(&body, 3, 8);
    SGL_RETURN_NOT_OK(wal.Append(WalRecordType::kTickBegin, body, nullptr));
    body.clear();
    storage::WalAppendLE(&body, 1, 4);
    body.append(run);
    SGL_RETURN_NOT_OK(wal.Append(WalRecordType::kCellDeltas, body, nullptr));
    body.clear();
    storage::WalAppendLE(&body, 3, 8);
    storage::WalAppendLE(&body, static_cast<uint64_t>(next_key), 8);
    storage::WalAppendLE(&body, static_cast<uint64_t>(rows), 4);
    SGL_RETURN_NOT_OK(wal.Append(WalRecordType::kTickCommit, body, nullptr));
  }
  auto store = WorldStore::Open(
      StorageConfigFor(dir, EvaluatorMode::kIndexed, 1).storage, nullptr);
  SGL_RETURN_NOT_OK(store.status());
  return (*store)->Recover().status();
}

TEST(StorageRecoveryTest, WalCellOutsideTheSchemaIsRefused) {
  // A well-framed tick whose one cell run names attribute 999 (the
  // coarse bit 63: battle has far fewer attributes).
  Status st = RecoverWithOneCellRun(
      "bad_attr_world", [](const EnvironmentTable&, std::string* body) {
        AppendCellRun(body, 0, 1, TableChanges::BitOf(999), {1.0});
      });
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code()) << st.ToString();
}

TEST(StorageRecoveryTest, WalCellRunPastTheRowCountIsRefused) {
  // A run over the last row and the one after it.
  Status st = RecoverWithOneCellRun(
      "run_past_rows_world", [](const EnvironmentTable& t, std::string* body) {
        const AttrId health = t.schema().Find("health");
        ASSERT_NE(Schema::kInvalidAttr, health);
        AppendCellRun(body, static_cast<uint64_t>(t.NumRows() - 1), 2,
                      TableChanges::BitOf(health), {1.0, 2.0});
      });
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code()) << st.ToString();
  EXPECT_NE(std::string::npos, st.ToString().find("storage: WAL cell run"))
      << st.ToString();
}

TEST(StorageRecoveryTest, WalCellRunMaskBitOutsideTheSchemaIsRefused) {
  // The first bit past the last attribute, then the key's bit 0 (keys
  // are never cell deltas).
  for (bool key_bit : {false, true}) {
    SCOPED_TRACE(key_bit ? "key bit" : "bit past the schema");
    Status st = RecoverWithOneCellRun(
        "mask_bit_world", [&](const EnvironmentTable& t, std::string* body) {
          const uint64_t mask =
              key_bit ? TableChanges::BitOf(kKeyAttrId)
                      : TableChanges::BitOf(t.schema().NumAttrs());
          AppendCellRun(body, 0, 1, mask, {1.0});
        });
    EXPECT_EQ(StatusCode::kInvalidArgument, st.code()) << st.ToString();
    EXPECT_NE(std::string::npos, st.ToString().find("outside the schema"))
        << st.ToString();
  }
}

TEST(StorageRecoveryTest, CorruptPageIsRefused) {
  const std::string dir = FreshDir("corrupt_world");
  {
    auto sim = BuildScenario(
        "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
    ASSERT_NE(nullptr, sim);
    ASSERT_TRUE(sim->Run(8).ok());
    ASSERT_TRUE(sim->Checkpoint(dir).ok());
  }
  // Flip a byte in every physical slot so the committed image is hit no
  // matter which ping-pong side each page committed to.
  const std::string pages_path = dir + "/pages.sgl";
  struct stat sb;
  ASSERT_EQ(0, ::stat(pages_path.c_str(), &sb));
  {
    std::fstream f(pages_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    for (off_t off = storage::kPageHeaderBytes + 1; off < sb.st_size;
         off += 512) {
      f.seekg(off);
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x41);
      f.seekp(off);
      f.write(&b, 1);
    }
  }
  auto store = WorldStore::Open(
      StorageConfigFor(dir, EvaluatorMode::kIndexed, 1).storage, nullptr);
  ASSERT_TRUE(store.ok());
  Status st = (*store)->Recover().status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos, st.ToString().find("checksum"));
}

// ------------------------------------------------------------ tiny pages

TEST(StorageTinyPageTest, TinyPagesComplete100Ticks) {
  SimulationConfig mem_config;
  mem_config.eval_mode = EvaluatorMode::kIndexed;
  auto mem = BuildScenario("battle", mem_config);
  ASSERT_NE(nullptr, mem);
  ASSERT_TRUE(mem->Run(100).ok());

  // 80 units at 128-byte pages (13 rows each) is 7 chunks x (1 + attrs)
  // pages, the last one partly past the table's end.
  const std::string dir = FreshDir("tiny_page_world");
  SimulationConfig config =
      StorageConfigFor(dir, EvaluatorMode::kIndexed, 1,
                       /*checkpoint_every=*/10);
  config.storage.page_size = 128;
  auto durable = BuildScenario("battle", config);
  ASSERT_NE(nullptr, durable);
  ASSERT_TRUE(durable->Run(100).ok());
  EXPECT_TRUE(durable->table().Equals(mem->table()))
      << durable->table().DiffString(mem->table());
}

// ----------------------------------------------------------- time travel

TEST(StorageTimeTravelTest, MaterializeRebuildsAnyLoggedTick) {
  const std::string dir = FreshDir("timetravel_world");
  std::vector<EnvironmentTable> states;  // state after each tick 0..27
  {
    auto sim = BuildScenario(
        "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1,
                                   /*checkpoint_every=*/10));
    ASSERT_NE(nullptr, sim);
    for (int64_t t = 0; t < 27; ++t) {
      states.push_back(sim->table().Clone());
      ASSERT_TRUE(sim->Tick().ok());
    }
    states.push_back(sim->table().Clone());
  }

  // Read-only queries: every tick from the last checkpoint (20) onward.
  auto store = WorldStore::Open(
      StorageConfigFor(dir, EvaluatorMode::kIndexed, 1).storage, nullptr);
  ASSERT_TRUE(store.ok());
  for (int64_t t = 20; t <= 27; ++t) {
    auto world = (*store)->Materialize(t);
    ASSERT_TRUE(world.ok()) << "tick " << t << ": "
                            << world.status().ToString();
    EXPECT_EQ(t, world->tick);
    EXPECT_TRUE(world->table.Equals(states[t]))
        << "tick " << t << ": " << world->table.DiffString(states[t]);
  }
  // Before the checkpoint or past the log end: clean errors.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            (*store)->Materialize(19).status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            (*store)->Materialize(28).status().code());
  store->reset();  // release the directory before the live sim reopens it

  // Rewind a live simulation to tick 23 and re-run: same future.
  auto sim = BuildScenario(
      "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
  ASSERT_NE(nullptr, sim);
  ASSERT_TRUE(sim->RestoreFrom(dir, 23).ok());
  EXPECT_EQ(23, sim->tick_count());
  ASSERT_TRUE(sim->Run(4).ok());
  EXPECT_TRUE(sim->table().Equals(states[27]))
      << sim->table().DiffString(states[27]);
}

// ------------------------------------ checkpoints outside the storage path

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// An in-memory battle (no storage path) with one injected nudge per tick.
std::unique_ptr<Simulation> RunPlainBattle(int64_t ticks) {
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  auto sim = BuildScenario("battle", config);
  if (sim == nullptr) return nullptr;
  for (int64_t t = 0; t < ticks; ++t) {
    serve::InjectedAction nudge;
    nudge.unit_key = t % 5;
    nudge.attr = "posx";
    nudge.op = serve::InjectedAction::Op::kAdd;
    nudge.value = 0.5;
    sim->inlet()->Push(nudge);
    EXPECT_TRUE(sim->Tick().ok());
  }
  return sim;
}

TEST(StorageCheckpointTest, PlainDirRoundTripsAndReplaysBitExactly) {
  auto sim = RunPlainBattle(5);
  ASSERT_NE(nullptr, sim);
  const std::string dir = FreshDir("plain_ckpt");
  ASSERT_FALSE(sim->inlet()->Log().empty());
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  EXPECT_TRUE(WorldStore::HasWorld(dir));

  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  auto twin = BuildScenario("battle", config);
  ASSERT_NE(nullptr, twin);
  Status st = twin->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(5, twin->tick_count());
  EXPECT_TRUE(twin->table().Equals(sim->table()))
      << twin->table().DiffString(sim->table());
  EXPECT_EQ(sim->inlet()->Log().size(), twin->inlet()->Log().size());

  // A restored simulation replays deterministically from the checkpoint.
  ASSERT_TRUE(sim->Run(5).ok());
  ASSERT_TRUE(twin->Run(5).ok());
  EXPECT_TRUE(twin->table().Equals(sim->table()))
      << twin->table().DiffString(sim->table());
}

TEST(StorageCheckpointTest, StoragelessRestoreReadsTheStoredPageSize) {
  // A world written with 512-byte pages restores into a simulation with
  // no storage of its own, whose default page size is 8192.
  const std::string dir = FreshDir("small_page_world");
  auto durable = BuildScenario(
      "battle", StorageConfigFor(dir, EvaluatorMode::kIndexed, 1));
  ASSERT_NE(nullptr, durable);
  ASSERT_TRUE(durable->Run(6).ok());
  ASSERT_TRUE(durable->Checkpoint(dir).ok());
  ASSERT_TRUE(durable->Run(3).ok());
  ASSERT_EQ(512, *WorldStore::StoredPageSize(dir));

  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  auto twin = BuildScenario("battle", config);
  ASSERT_NE(nullptr, twin);
  Status st = twin->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(9, twin->tick_count());
  EXPECT_TRUE(twin->table().Equals(durable->table()))
      << twin->table().DiffString(durable->table());
  ASSERT_TRUE(durable->Run(4).ok());
  ASSERT_TRUE(twin->Run(4).ok());
  EXPECT_TRUE(twin->table().Equals(durable->table()))
      << twin->table().DiffString(durable->table());
}

TEST(StorageCheckpointTest, CheckpointReplacesALogOfAnotherVersion) {
  auto sim = RunPlainBattle(4);
  ASSERT_NE(nullptr, sim);
  const std::string dir = FreshDir("old_wal_ckpt");
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  {
    // Stamp the log with version 1, as an older build would leave it.
    std::fstream f(dir + "/wal.sgl",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(6);
    const char v1[2] = {1, 0};
    f.write(v1, 2);
  }
  // Replaying that log is refused, never misread...
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  auto twin = BuildScenario("battle", config);
  ASSERT_NE(nullptr, twin);
  Status st = twin->RestoreFrom(dir);
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code()) << st.ToString();
  EXPECT_NE(std::string::npos, st.ToString().find("unsupported version 1"))
      << st.ToString();
  // ...and a checkpoint over the directory replaces it.
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  st = twin->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(twin->table().Equals(sim->table()))
      << twin->table().DiffString(sim->table());
}

TEST(StorageCheckpointTest, CorruptManifestIsRefused) {
  auto sim = RunPlainBattle(3);
  ASSERT_NE(nullptr, sim);
  const std::string dir = FreshDir("corrupt_manifest");
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  const std::string path = dir + "/MANIFEST.sgl";
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 20u);

  std::vector<std::pair<std::string, std::string>> cases;
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  cases.emplace_back("bad magic", bad_magic);
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x10;  // only the checksum can catch this
  cases.emplace_back("flipped byte", flipped);
  for (size_t cut : {size_t{3}, size_t{9}, bytes.size() / 2,
                     bytes.size() - 1}) {
    cases.emplace_back("cut at " + std::to_string(cut), bytes.substr(0, cut));
  }
  cases.emplace_back("trailing byte", bytes + "x");

  for (const auto& c : cases) {
    WriteFile(path, c.second);
    Status st = sim->RestoreFrom(dir);
    EXPECT_EQ(StatusCode::kInvalidArgument, st.code())
        << c.first << ": " << st.ToString();
  }
  WriteFile(path, bytes);
  EXPECT_TRUE(sim->RestoreFrom(dir).ok());
}

TEST(StorageCheckpointTest, OverwriteKeepsThePublishedImageUntilItsManifest) {
  auto sim = RunPlainBattle(4);
  ASSERT_NE(nullptr, sim);
  const std::string dir = FreshDir("overwrite_ckpt");
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  const EnvironmentTable first = sim->table().Clone();
  const std::string manifest = ReadFile(dir + "/MANIFEST.sgl");
  const std::string wal = ReadFile(dir + "/wal.sgl");

  // Overwrite it with a later state, then roll the manifest and the log
  // back: what a crash just before the new manifest's rename leaves.
  ASSERT_TRUE(sim->Run(6).ok());
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  WriteFile(dir + "/MANIFEST.sgl", manifest);
  WriteFile(dir + "/wal.sgl", wal);

  Status st = sim->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(4, sim->tick_count());
  EXPECT_TRUE(sim->table().Equals(first)) << sim->table().DiffString(first);
}

/// The committed-slot bit per page from a manifest's bytes (layout in
/// WorldStore::WriteManifest): magic, version, tick, next key, row
/// count, page size, the schema, then the bits and a checksum.
std::vector<uint8_t> CommittedBits(const std::string& manifest) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(manifest.data());
  size_t pos = 6 + 2 + 8 + 8 + 4 + 4;
  const uint64_t num_attrs = storage::LoadLE(data + pos, 4);
  pos += 4;
  for (uint64_t a = 0; a < num_attrs; ++a) {
    pos += 1 + 4 + storage::LoadLE(data + pos + 1, 4);  // combine, name
  }
  const uint64_t num_pages = storage::LoadLE(data + pos, 4);
  pos += 4;
  EXPECT_EQ(manifest.size(), pos + num_pages + 8);
  return std::vector<uint8_t>(data + pos, data + pos + num_pages);
}

TEST(StorageCheckpointTest, TicksLeavePagesAloneAndCheckpointsWriteOnlyDelta) {
  const std::string dir = FreshDir("delta_ckpt");
  const std::string pages_path = dir + "/pages.sgl";
  const std::string manifest_path = dir + "/MANIFEST.sgl";
  const SimulationConfig config =
      StorageConfigFor(dir, EvaluatorMode::kIndexed, 1);
  auto sim = BuildScenario("battle", config);
  ASSERT_NE(nullptr, sim);
  ASSERT_TRUE(sim->Run(3).ok());
  ASSERT_TRUE(sim->Checkpoint(dir).ok());

  // Ticks log to the WAL only.
  const std::string checkpointed = ReadFile(pages_path);
  ASSERT_TRUE(sim->Run(5).ok());
  EXPECT_TRUE(ReadFile(pages_path) == checkpointed)
      << "a tick without a checkpoint wrote pages.sgl";

  // One cell in chunk 1, then a checkpoint: one page's scratch slot.
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  const std::string before = ReadFile(pages_path);
  const std::vector<uint8_t> bits_before =
      CommittedBits(ReadFile(manifest_path));
  const int32_t page_size = config.storage.page_size;
  const RowId rows_per_page = (page_size - storage::kPageHeaderBytes) / 8;
  const RowId row = rows_per_page + 1;
  EnvironmentTable* table = sim->mutable_table();
  ASSERT_GT(table->NumRows(), row);
  const AttrId health = table->schema().Find("health");
  ASSERT_NE(Schema::kInvalidAttr, health);
  table->Set(row, health, 12345.5);
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  const std::string after = ReadFile(pages_path);
  const std::vector<uint8_t> bits_after =
      CommittedBits(ReadFile(manifest_path));

  const storage::PageId page = table->schema().NumAttrs() + health;
  ASSERT_LT(page, static_cast<storage::PageId>(bits_before.size()));
  const size_t scratch = static_cast<size_t>(page * 2 + 1 - bits_before[page]);
  const auto slot_bytes = [&](const std::string& file, size_t slot) {
    std::string bytes(static_cast<size_t>(page_size), '\0');
    const size_t off = slot * static_cast<size_t>(page_size);
    if (off < file.size()) {
      bytes.replace(0, std::min(bytes.size(), file.size() - off),
                    file.substr(off, bytes.size()));
    }
    return bytes;
  };
  const size_t num_slots =
      std::max(before.size(), after.size()) / static_cast<size_t>(page_size);
  ASSERT_GT(num_slots, scratch);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    EXPECT_EQ(slot == scratch,
              slot_bytes(before, slot) != slot_bytes(after, slot))
        << "physical slot " << slot << " (page " << slot / 2 << ")";
  }
  ASSERT_EQ(bits_before.size(), bits_after.size());
  for (size_t p = 0; p < bits_before.size(); ++p) {
    EXPECT_EQ(static_cast<storage::PageId>(p) == page,
              bits_before[p] != bits_after[p])
        << "committed bit of page " << p;
  }

  const EnvironmentTable live = sim->table().Clone();
  sim.reset();  // release the directory before the fresh sim opens it
  auto fresh = BuildScenario("battle", config);
  ASSERT_NE(nullptr, fresh);
  Status st = fresh->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(fresh->table().Equals(live)) << fresh->table().DiffString(live);
}

TEST(StorageCheckpointTest, StaleTornInletTempIsIgnored) {
  auto sim = RunPlainBattle(4);
  ASSERT_NE(nullptr, sim);
  const std::string dir = FreshDir("inlet_tmp_ckpt");
  ASSERT_TRUE(sim->Checkpoint(dir).ok());
  // A crash mid-SaveLog leaves a torn temp file; the published log stays.
  WriteFile(dir + "/inlet.sgl.tmp", "SGLINL\x01");

  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  auto twin = BuildScenario("battle", config);
  ASSERT_NE(nullptr, twin);
  Status st = twin->RestoreFrom(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sim->inlet()->Log().size(), twin->inlet()->Log().size());
  EXPECT_TRUE(twin->table().Equals(sim->table()))
      << twin->table().DiffString(sim->table());
}

// -------------------------------------------------------- artifact dumps

TEST(StorageTraceTest, EveryTickHasOneCommitSpanInsideIt) {
  const std::string dir = FreshDir("traced_world");
  SimulationConfig config = StorageConfigFor(dir, EvaluatorMode::kIndexed, 2,
                                             /*checkpoint_every=*/4);
  config.artifacts.trace_path = dir + "/trace.json";
  auto sim = BuildScenario("epidemic", config);
  ASSERT_NE(nullptr, sim);
  const int64_t kTicks = 9;
  ASSERT_TRUE(sim->Run(kTicks).ok());
  ASSERT_TRUE(sim->WriteTrace(config.artifacts.trace_path).ok());

  std::vector<obs::TraceEvent> ticks;
  std::vector<obs::TraceEvent> commits;
  for (const obs::TraceEvent& e : sim->tracer()->Collect()) {
    if (e.tid != 0 || e.dur_ns < 0) continue;
    if (e.name == "tick") ticks.push_back(e);
    if (e.name == "storage.commit") commits.push_back(e);
  }
  ASSERT_EQ(static_cast<size_t>(kTicks), ticks.size());
  ASSERT_EQ(ticks.size(), commits.size());
  for (const obs::TraceEvent& tick : ticks) {
    int inside = 0;
    for (const obs::TraceEvent& c : commits) {
      if (c.ts_ns >= tick.ts_ns &&
          c.ts_ns + c.dur_ns <= tick.ts_ns + tick.dur_ns) {
        ++inside;
      }
    }
    EXPECT_EQ(1, inside) << "tick at ts " << tick.ts_ns;
  }
}

TEST(DumpArtifactsTest, WritesTheConfiguredBundle) {
  const std::string dir = FreshDir("artifacts_bundle");
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.artifacts.trace_path = dir + "/live_trace.json";  // enables tracer
  config.artifacts.flight_recorder_ticks = 8;
  auto sim = BuildScenario("battle", config);
  ASSERT_NE(nullptr, sim);
  ASSERT_TRUE(sim->Run(5).ok());

  ASSERT_TRUE(sim->DumpArtifacts(dir).ok());
  for (const char* f : {"trace.json", "metrics.json", "flight_record.json"}) {
    std::ifstream in(dir + "/" + f);
    EXPECT_TRUE(in.is_open()) << f;
  }
}

}  // namespace
}  // namespace sgl
