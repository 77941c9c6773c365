// Serving-layer tests (src/serve/): the ISSUE-9 acceptance matrix.
//
//  * Lockstep: K sessions sharing one SessionManager pool must be
//    bit-identical to the same simulations run solo, for every registered
//    scenario x {naive, indexed, adaptive} x (pool size, sessions) in
//    {(1, 2), (2, 2), (2, 3), (4, 2)}, with and without injected
//    actions. (1, 2) ticks both sessions in one chunk on the serving
//    thread, (2, 2) side by side, (2, 3) side by side in uneven chunks,
//    and (4, 2) side by side with fewer sessions than threads.
//    Storage-backed sessions ticking side by side, with a mid-run
//    checkpoint, match their solo runs and restore from their dirs.
//  * Injected-action replay: a live-injection run is reproduced bit for
//    bit by replaying its recorded inlet log into a fresh session.
//  * Admission control: session, row, and queue-depth limits reject with
//    kResourceExhausted and count serve.rejected.
//  * Scheduler fairness: round-robin with a tick budget never lets one
//    session starve another over a 1k-tick run, and a failing session
//    neither starves its neighbours nor loses its completed ticks.
//  * The consolidated SimulationConfig::Validate() vocabulary rides
//    along.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "engine/simulation.h"
#include "scenario/scenario.h"
#include "serve/session_manager.h"
#include "sgl/analyzer.h"

namespace sgl {
namespace {

using serve::InjectedAction;
using serve::InletDrainStats;
using serve::InletRecord;
using serve::SessionId;
using serve::SessionManager;
using serve::SessionManagerOptions;

ScenarioParams SmallParams() {
  ScenarioParams params;
  params.units = 100;
  params.density = 0.02;
  params.seed = 23;
  return params;
}

SimulationConfig ServeConfig(EvaluatorMode mode, int32_t threads) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = threads;
  return config;
}

/// The deterministic injection schedule both the managed sessions and the
/// solo baseline receive: a handful of posx rewrites per tick. Stale keys
/// (a unit died) drop identically on both sides, so the runs stay in
/// lockstep by construction.
std::vector<InjectedAction> InjectionsForTick(int64_t tick) {
  std::vector<InjectedAction> actions;
  for (int64_t k = 0; k < 3; ++k) {
    InjectedAction action;
    action.unit_key = (tick * 5 + k * 11) % 40;
    action.attr = "posx";
    action.op = InjectedAction::Op::kSet;
    action.value = static_cast<double>((tick * 7 + k * 13) % 32);
    actions.push_back(action);
  }
  return actions;
}

// --------------------------------------------------- lockstep bit-exactness

class ServeScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeScenarioTest, SharedPoolSessionsMatchSoloRuns) {
  const std::string& name = GetParam();
  const ScenarioParams params = SmallParams();
  constexpr int64_t kTicks = 8;
  struct Shape {
    int32_t threads;
    int32_t sessions;
  };

  for (EvaluatorMode mode : {EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
                             EvaluatorMode::kAdaptive}) {
    for (const Shape shape : {Shape{1, 2}, Shape{2, 2}, Shape{2, 3},
                              Shape{4, 2}}) {
      const int32_t threads = shape.threads;
      for (bool inject : {false, true}) {
        const SimulationConfig config = ServeConfig(mode, threads);
        const std::string label = name + " mode=" + EvaluatorModeName(mode) +
                                  " threads=" + std::to_string(threads) +
                                  " sessions=" +
                                  std::to_string(shape.sessions) +
                                  " inject=" + std::to_string(inject);

        // Solo baseline: its own pool, same resolved size.
        auto solo = ScenarioRegistry::Global().BuildSimulation(name, params,
                                                              config);
        ASSERT_TRUE(solo.ok()) << label << ": " << solo.status().ToString();

        SessionManagerOptions options;
        options.threads = threads;
        auto manager = SessionManager::Create(options);
        ASSERT_TRUE(manager.ok()) << manager.status().ToString();

        std::vector<SessionId> ids;
        for (int32_t s = 0; s < shape.sessions; ++s) {
          SimulationBuilder builder;
          ASSERT_TRUE(ScenarioRegistry::Global()
                          .PrepareBuilder(name, params, config, &builder)
                          .ok());
          auto id = (*manager)->Open(builder);
          ASSERT_TRUE(id.ok()) << label << ": " << id.status().ToString();
          ids.push_back(*id);
          EXPECT_EQ(threads, (*manager)->session(*id)->threads());
        }

        for (int64_t tick = 0; tick < kTicks; ++tick) {
          if (inject) {
            for (const InjectedAction& action : InjectionsForTick(tick)) {
              (*solo)->inlet()->Push(action);
              for (SessionId id : ids) {
                ASSERT_TRUE((*manager)->Inject(id, action).ok());
              }
            }
          }
          ASSERT_TRUE((*solo)->Tick().ok()) << label << " tick " << tick;
          for (SessionId id : ids) {
            ASSERT_TRUE((*manager)->ScheduleTicks(id, 1).ok());
          }
          auto executed = (*manager)->RunRound();
          ASSERT_TRUE(executed.ok()) << label << ": "
                                     << executed.status().ToString();
          ASSERT_EQ(shape.sessions, *executed);
          for (SessionId id : ids) {
            const Simulation* session = (*manager)->session(id);
            ASSERT_NE(session, nullptr);
            ASSERT_TRUE(session->table().Equals((*solo)->table()))
                << label << " session " << id << " diverged at tick "
                << tick << ":\n"
                << session->table().DiffString((*solo)->table());
          }
        }

        // Deterministic metrics: every co-scheduled session matches the
        // solo run exactly, like the thread matrices do.
        const std::string solo_metrics =
            (*solo)->MetricsJson(/*deterministic_only=*/true);
        for (SessionId id : ids) {
          EXPECT_EQ((*manager)->session(id)->MetricsJson(
                        /*deterministic_only=*/true),
                    solo_metrics)
              << label << ": deterministic metrics diverged from solo";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ServeScenarioTest,
    ::testing::ValuesIn(ScenarioRegistry::Global().List()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

/// A fresh, empty directory under the test temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/serve_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Two storage-backed epidemic sessions, each on its own directory, tick
// side by side on a 2-thread pool with injected actions and a mid-run
// checkpoint — the serve-durable shape. Each must match its solo
// in-memory run tick by tick, and a restore of its directory must match
// the live session.
TEST(ServeStorageTest, StorageSessionsTickSideBySideLikeSoloRuns) {
  constexpr int32_t kSessions = 2;
  constexpr int64_t kTicks = 10;
  constexpr int64_t kCheckpointAt = 5;

  SessionManagerOptions options;
  options.threads = 2;
  options.tick_budget = 1;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  std::vector<ScenarioParams> params;
  std::vector<std::string> dirs;
  std::vector<std::unique_ptr<Simulation>> solos;
  std::vector<SessionId> ids;
  for (int32_t s = 0; s < kSessions; ++s) {
    ScenarioParams p = SmallParams();
    p.seed = 40 + static_cast<uint64_t>(s);
    params.push_back(p);
    dirs.push_back(FreshDir("durable_s" + std::to_string(s)));

    auto solo = ScenarioRegistry::Global().BuildSimulation(
        "epidemic", p, ServeConfig(EvaluatorMode::kIndexed, 2));
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    solos.push_back(solo.MoveValue());

    SimulationConfig config = ServeConfig(EvaluatorMode::kIndexed, 2);
    config.storage.path = dirs.back();
    SimulationBuilder builder;
    ASSERT_TRUE(ScenarioRegistry::Global()
                    .PrepareBuilder("epidemic", p, config, &builder)
                    .ok());
    auto id = (*manager)->Open(builder);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  for (int64_t tick = 0; tick < kTicks; ++tick) {
    for (int32_t s = 0; s < kSessions; ++s) {
      for (const InjectedAction& action : InjectionsForTick(tick + s)) {
        solos[s]->inlet()->Push(action);
        ASSERT_TRUE((*manager)->Inject(ids[s], action).ok());
      }
      ASSERT_TRUE(solos[s]->Tick().ok());
      ASSERT_TRUE((*manager)->ScheduleTicks(ids[s], 1).ok());
    }
    auto executed = (*manager)->RunRound();
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    ASSERT_EQ(kSessions, *executed);
    for (int32_t s = 0; s < kSessions; ++s) {
      const Simulation* session = (*manager)->session(ids[s]);
      ASSERT_TRUE(session->table().Equals(solos[s]->table()))
          << "session " << s << " diverged at tick " << tick << ":\n"
          << session->table().DiffString(solos[s]->table());
    }
    if (tick + 1 == kCheckpointAt) {
      for (int32_t s = 0; s < kSessions; ++s) {
        ASSERT_TRUE((*manager)->session(ids[s])->Checkpoint(dirs[s]).ok());
      }
    }
  }

  // Recover each session from a copy of its directory (the live store
  // keeps the original open): checkpoint plus WAL replay.
  for (int32_t s = 0; s < kSessions; ++s) {
    const Simulation* live = (*manager)->session(ids[s]);
    EXPECT_EQ(live->MetricsJson(/*deterministic_only=*/true),
              solos[s]->MetricsJson(/*deterministic_only=*/true))
        << "session " << s;
    const std::string copy = FreshDir("durable_copy" + std::to_string(s));
    std::filesystem::copy(dirs[s], copy,
                          std::filesystem::copy_options::recursive);
    auto restored = ScenarioRegistry::Global().BuildSimulation(
        "epidemic", params[s], ServeConfig(EvaluatorMode::kIndexed, 1));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Status st = (*restored)->RestoreFrom(copy);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(live->tick_count(), (*restored)->tick_count());
    EXPECT_TRUE((*restored)->table().Equals(live->table()))
        << "session " << s << ":\n"
        << (*restored)->table().DiffString(live->table());
  }
}

// --------------------------------------------------------- action replay

TEST(ActionInletTest, RecordedLogReplaysBitIdentically) {
  const ScenarioParams params = SmallParams();
  const SimulationConfig config =
      ServeConfig(EvaluatorMode::kIndexed, 1);

  auto live = ScenarioRegistry::Global().BuildSimulation("battle", params,
                                                         config);
  ASSERT_TRUE(live.ok());
  for (int64_t tick = 0; tick < 10; ++tick) {
    if (tick % 2 == 0) {
      for (const InjectedAction& action : InjectionsForTick(tick)) {
        (*live)->inlet()->Push(action);
      }
    }
    ASSERT_TRUE((*live)->Tick().ok());
  }
  const std::vector<InletRecord> log = (*live)->inlet()->Log();
  ASSERT_FALSE(log.empty());
  for (const InletRecord& record : log) {
    EXPECT_GE(record.tick, 0);  // applied records are tick-stamped
  }

  auto replay = ScenarioRegistry::Global().BuildSimulation("battle", params,
                                                           config);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE((*replay)->inlet()->Replay(log).ok());
  ASSERT_TRUE((*replay)->Run(10).ok());

  EXPECT_TRUE((*replay)->table().Equals((*live)->table()))
      << (*replay)->table().DiffString((*live)->table());
  EXPECT_EQ((*replay)->inlet()->applied(), (*live)->inlet()->applied());
  EXPECT_EQ((*replay)->inlet()->dropped(), (*live)->inlet()->dropped());
}

TEST(ActionInletTest, StaleKeysDropDeterministically) {
  const SimulationConfig config =
      ServeConfig(EvaluatorMode::kIndexed, 1);
  auto sim = ScenarioRegistry::Global().BuildSimulation(
      "battle", SmallParams(), config);
  ASSERT_TRUE(sim.ok());
  InjectedAction bogus;
  bogus.unit_key = 1 << 20;  // never a real unit
  bogus.attr = "posx";
  (*sim)->inlet()->Push(bogus);
  InjectedAction bad_attr;
  bad_attr.unit_key = 0;
  bad_attr.attr = "no_such_attr";
  (*sim)->inlet()->Push(bad_attr);
  InjectedAction key_write;
  key_write.unit_key = 0;
  key_write.attr = "key";  // the key is never writable
  (*sim)->inlet()->Push(key_write);
  ASSERT_TRUE((*sim)->Tick().ok());
  EXPECT_EQ(0, (*sim)->inlet()->applied());
  EXPECT_EQ(3, (*sim)->inlet()->dropped());
}

TEST(ActionInletTest, ReplayValidatesOrderAndPinning) {
  serve::ActionInlet inlet;
  InletRecord unpinned;
  unpinned.seq = 0;
  EXPECT_FALSE(inlet.Replay({unpinned}).ok());

  InletRecord a;
  a.seq = 1;
  a.tick = 5;
  InletRecord b;
  b.seq = 0;
  b.tick = 3;
  EXPECT_FALSE(inlet.Replay({a, b}).ok());  // ticks descend
  EXPECT_TRUE(inlet.Replay({b, a}).ok());
}

TEST(ActionInletTest, SaveRestoreLogRoundTripsAndRequeues) {
  serve::ActionInlet inlet;
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("hp", CombineType::kSet).ok());
  EnvironmentTable table{schema};
  ASSERT_TRUE(table.AddRow({10.0}).ok());
  InjectedAction hit;
  hit.unit_key = 0;
  hit.attr = "hp";
  hit.op = InjectedAction::Op::kAdd;
  hit.value = -2.5;
  inlet.Push(hit);
  InletDrainStats stats;
  ASSERT_TRUE(inlet.DrainInto(&table, /*tick=*/0, &stats).ok());
  hit.value = -1.25;
  inlet.Push(hit);
  ASSERT_TRUE(inlet.DrainInto(&table, /*tick=*/3, &stats).ok());
  ASSERT_EQ(2u, inlet.Log().size());

  const std::string path = ::testing::TempDir() + "/inlet_log.sgl";
  ASSERT_TRUE(inlet.SaveLog(path).ok());

  // Restored to tick 2: the tick-0 record is history, the tick-3 record
  // re-queues pinned, and fresh pushes get post-log sequence numbers.
  serve::ActionInlet restored;
  ASSERT_TRUE(restored.RestoreLog(path, /*tick=*/2).ok());
  EXPECT_EQ(1, restored.QueuedCount());
  ASSERT_EQ(1u, restored.Log().size());
  EXPECT_EQ(0, restored.Log()[0].tick);
  EXPECT_EQ(-2.5, restored.Log()[0].action.value);
  InjectedAction fresh;
  fresh.unit_key = 0;
  fresh.attr = "hp";
  EXPECT_EQ(2, restored.Push(fresh));

  // A missing file restores to an empty inlet; corrupt bytes are refused.
  serve::ActionInlet empty;
  ASSERT_TRUE(
      empty.RestoreLog(::testing::TempDir() + "/no_such_inlet.sgl", 0).ok());
  EXPECT_EQ(0, empty.QueuedCount());
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x40;
    const std::string bad = ::testing::TempDir() + "/inlet_bad.sgl";
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();
    serve::ActionInlet corrupt;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              corrupt.RestoreLog(bad, 0).code());
  }
}

// ------------------------------------------------------ admission control

TEST(SessionManagerTest, SessionLimitRejectsWithResourceExhausted) {
  SessionManagerOptions options;
  options.max_sessions = 1;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());

  SimulationBuilder first;
  ASSERT_TRUE(ScenarioRegistry::Global()
                  .PrepareBuilder("battle", SmallParams(),
                                  ServeConfig(EvaluatorMode::kIndexed, 1),
                                  &first)
                  .ok());
  ASSERT_TRUE((*manager)->Open(first).ok());

  SimulationBuilder second;
  ASSERT_TRUE(ScenarioRegistry::Global()
                  .PrepareBuilder("battle", SmallParams(),
                                  ServeConfig(EvaluatorMode::kIndexed, 1),
                                  &second)
                  .ok());
  auto rejected = (*manager)->Open(second);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, rejected.status().code());
  EXPECT_NE((*manager)->MetricsJson().find("\"serve.rejected\":1"),
            std::string::npos)
      << (*manager)->MetricsJson();
}

TEST(SessionManagerTest, RowLimitRejectsWithResourceExhausted) {
  SessionManagerOptions options;
  options.max_total_rows = 150;  // one 100-unit world fits, two do not
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());

  SimulationBuilder first;
  ASSERT_TRUE(ScenarioRegistry::Global()
                  .PrepareBuilder("battle", SmallParams(),
                                  ServeConfig(EvaluatorMode::kIndexed, 1),
                                  &first)
                  .ok());
  ASSERT_TRUE((*manager)->Open(first).ok());
  EXPECT_EQ(100, (*manager)->TotalRows());

  SimulationBuilder second;
  ASSERT_TRUE(ScenarioRegistry::Global()
                  .PrepareBuilder("battle", SmallParams(),
                                  ServeConfig(EvaluatorMode::kIndexed, 1),
                                  &second)
                  .ok());
  auto rejected = (*manager)->Open(second);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, rejected.status().code());
  EXPECT_EQ(1, (*manager)->NumSessions());
}

TEST(SessionManagerTest, QueueDepthBackpressureRejectsInject) {
  SessionManagerOptions options;
  options.max_queued_actions = 2;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());

  SimulationBuilder builder;
  ASSERT_TRUE(ScenarioRegistry::Global()
                  .PrepareBuilder("battle", SmallParams(),
                                  ServeConfig(EvaluatorMode::kIndexed, 1),
                                  &builder)
                  .ok());
  auto id = (*manager)->Open(builder);
  ASSERT_TRUE(id.ok());

  InjectedAction action;
  action.unit_key = 0;
  action.attr = "posx";
  EXPECT_TRUE((*manager)->Inject(*id, action).ok());
  EXPECT_TRUE((*manager)->Inject(*id, action).ok());
  auto rejected = (*manager)->Inject(*id, action);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, rejected.status().code());

  // Draining the queue (one tick) reopens the inlet.
  ASSERT_TRUE((*manager)->ScheduleTicks(*id, 1).ok());
  ASSERT_TRUE((*manager)->RunUntilIdle().ok());
  EXPECT_TRUE((*manager)->Inject(*id, action).ok());
}

TEST(SessionManagerTest, UnknownSessionsAreNotFound) {
  auto manager = SessionManager::Create(SessionManagerOptions{});
  ASSERT_TRUE(manager.ok());
  EXPECT_EQ(nullptr, (*manager)->session(7));
  EXPECT_EQ(StatusCode::kNotFound,
            (*manager)->ScheduleTicks(7, 1).code());
  EXPECT_EQ(StatusCode::kNotFound,
            (*manager)->Inject(7, InjectedAction{}).status().code());
  EXPECT_EQ(StatusCode::kNotFound, (*manager)->Close(7).status().code());
}

TEST(SessionManagerTest, OptionsAreValidated) {
  for (auto mutate : std::vector<void (*)(SessionManagerOptions&)>{
           [](SessionManagerOptions& o) { o.threads = -1; },
           [](SessionManagerOptions& o) { o.max_sessions = 0; },
           [](SessionManagerOptions& o) { o.max_total_rows = 0; },
           [](SessionManagerOptions& o) { o.tick_budget = 0; },
           [](SessionManagerOptions& o) { o.max_queued_actions = 0; }}) {
    SessionManagerOptions options;
    mutate(options);
    auto manager = SessionManager::Create(options);
    EXPECT_FALSE(manager.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, manager.status().code());
  }
}

// --------------------------------------------------- scheduling fairness

// A featherweight single-unit world so a 1k-tick fairness run stays fast.
std::unique_ptr<SimulationBuilder> TinyWorldBuilder(uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(schema.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(schema.AddAttribute("movex", CombineType::kSum).ok());
  EXPECT_TRUE(schema.AddAttribute("movey", CombineType::kSum).ok());
  EnvironmentTable table(schema);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(table.AddRow({double(8 * i), 8, 0, 0}).ok());
  }
  auto script = CompileScript(R"(
    action Drift(u, dx) {
      update e where e.key = u.key set movex += dx;
    }
    function main(u) {
      perform Drift(u, random(1) mod 3 - 1);
    }
  )",
                              schema);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  SimulationConfig config;
  config.seed = seed;
  config.grid_width = 64;
  config.grid_height = 64;
  auto builder = std::make_unique<SimulationBuilder>();
  builder->SetTable(std::move(table))
      .SetConfig(config)
      .AddScript("drift", script.MoveValue());
  return builder;
}

TEST(SessionManagerTest, RoundRobinNeverStarvesASession) {
  SessionManagerOptions options;
  options.tick_budget = 16;
  options.max_sessions = 3;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());

  std::vector<SessionId> ids;
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto builder = TinyWorldBuilder(seed);
    auto id = (*manager)->Open(*builder);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  constexpr int64_t kPerSession = 400;  // 1200 ticks total
  for (SessionId id : ids) {
    ASSERT_TRUE((*manager)->ScheduleTicks(id, kPerSession).ok());
  }

  int64_t total = 0;
  while (true) {
    auto executed = (*manager)->RunRound();
    ASSERT_TRUE(executed.ok());
    if (*executed == 0) break;
    total += *executed;
    // Fairness invariant: after any round, no session is ever more than
    // one budget ahead of any other.
    int64_t lo = kPerSession, hi = 0;
    for (SessionId id : ids) {
      const int64_t ticks = (*manager)->session(id)->tick_count();
      lo = std::min(lo, ticks);
      hi = std::max(hi, ticks);
    }
    EXPECT_LE(hi - lo, options.tick_budget)
        << "session spread exceeded the round budget";
  }
  EXPECT_EQ(3 * kPerSession, total);
  for (SessionId id : ids) {
    EXPECT_EQ(kPerSession, (*manager)->session(id)->tick_count());
  }
}

// Session 0 is opened over a directory holding a world it never restored,
// so its first tick fails; session 1 is healthy. Whether they tick one
// after another (1 thread) or side by side (2), session 1 still runs its
// slice, session 0 keeps its pending ticks, serve.ticks counts only the
// ticks that ran, and the error names session 0.
TEST(SessionManagerTest, FailingSessionNeitherStarvesNeighboursNorLosesTicks) {
  for (int32_t threads : {1, 2}) {
    const std::string label = "threads=" + std::to_string(threads);
    const std::string dir = FreshDir("unrestored_t" + std::to_string(threads));
    SimulationConfig config = ServeConfig(EvaluatorMode::kIndexed, 1);
    config.storage.path = dir;
    {
      auto earlier = ScenarioRegistry::Global().BuildSimulation(
          "battle", SmallParams(), config);
      ASSERT_TRUE(earlier.ok()) << earlier.status().ToString();
      ASSERT_TRUE((*earlier)->Run(3).ok());
      ASSERT_TRUE((*earlier)->Checkpoint(dir).ok());
    }

    SessionManagerOptions options;
    options.threads = threads;
    auto manager = SessionManager::Create(options);
    ASSERT_TRUE(manager.ok());
    SimulationBuilder unrestored;
    ASSERT_TRUE(ScenarioRegistry::Global()
                    .PrepareBuilder("battle", SmallParams(), config,
                                    &unrestored)
                    .ok());
    auto broken = (*manager)->Open(unrestored);
    ASSERT_TRUE(broken.ok()) << broken.status().ToString();
    auto healthy = TinyWorldBuilder(5);
    auto fine = (*manager)->Open(*healthy);
    ASSERT_TRUE(fine.ok()) << fine.status().ToString();
    ASSERT_EQ(0, *broken);

    ASSERT_TRUE((*manager)->ScheduleTicks(*broken, 3).ok());
    ASSERT_TRUE((*manager)->ScheduleTicks(*fine, 3).ok());
    auto round = (*manager)->RunRound();
    ASSERT_FALSE(round.ok()) << label;
    EXPECT_EQ(0u, round.status().message().find("session 0: "))
        << label << ": " << round.status().ToString();
    EXPECT_NE(std::string::npos,
              round.status().ToString().find("RestoreFrom"))
        << label << ": " << round.status().ToString();

    EXPECT_EQ(3, (*manager)->session(*fine)->tick_count()) << label;
    EXPECT_EQ(0, (*manager)->session(*broken)->tick_count()) << label;
    const std::string metrics = (*manager)->MetricsJson();
    EXPECT_NE(std::string::npos, metrics.find("\"serve.ticks\":3"))
        << label << ": " << metrics;
    // Only session 0's three ticks are still pending.
    EXPECT_NE(std::string::npos, metrics.find("\"serve.queued_ticks\":3"))
        << label << ": " << metrics;
  }
}

// serve.round_ns records one sample per round that had work, and stays
// out of the deterministic snapshot; each session's engine.tick.ns
// histogram is exported the same way.
TEST(SessionManagerTest, RoundLatencyHistogramCountsNonEmptyRounds) {
  SessionManagerOptions options;
  options.threads = 2;
  options.tick_budget = 4;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok());
  std::vector<SessionId> ids;
  for (uint64_t seed : {1u, 2u}) {
    auto builder = TinyWorldBuilder(seed);
    auto id = (*manager)->Open(*builder);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_NE(std::string::npos,
            (*manager)->MetricsJson().find("\"serve.round_ns.count\":0"));

  // 10 ticks at a budget of 4: rounds of 8, 8 and 4 ticks, then idle.
  for (SessionId id : ids) ASSERT_TRUE((*manager)->ScheduleTicks(id, 10).ok());
  ASSERT_TRUE((*manager)->RunUntilIdle().ok());
  auto idle = (*manager)->RunRound();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(0, *idle);

  const std::string metrics = (*manager)->MetricsJson();
  EXPECT_NE(std::string::npos, metrics.find("\"serve.round_ns.count\":3"))
      << metrics;
  EXPECT_NE(std::string::npos, metrics.find("\"serve.round_ns.bucket.inf\":"))
      << metrics;
  for (SessionId id : ids) {
    const std::string key =
        "\"session." + std::to_string(id) + ".engine.tick.ns.count\":10";
    EXPECT_NE(std::string::npos, metrics.find(key)) << key << " in " << metrics;
  }
  const std::string deterministic =
      (*manager)->MetricsJson(/*deterministic_only=*/true);
  EXPECT_EQ(std::string::npos, deterministic.find("serve.round_ns"));
  EXPECT_EQ(std::string::npos, deterministic.find("engine.tick.ns"));
}

TEST(SessionManagerTest, CloseDrainsPendingTicksGracefully) {
  auto manager = SessionManager::Create(SessionManagerOptions{});
  ASSERT_TRUE(manager.ok());
  auto builder = TinyWorldBuilder(9);
  auto id = (*manager)->Open(*builder);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*manager)->ScheduleTicks(*id, 37).ok());

  auto sim = (*manager)->Close(*id);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(37, (*sim)->tick_count());  // scheduled work ran before release
  EXPECT_EQ(0, (*manager)->NumSessions());
  EXPECT_NE((*manager)->MetricsJson().find("\"serve.closed\":1"),
            std::string::npos);
}

// ---------------------------------------------- config validation seam

TEST(SimulationConfigTest, ValidateUsesOneErrorVocabulary) {
  struct Case {
    void (*mutate)(SimulationConfig&);
  };
  for (auto mutate : std::vector<void (*)(SimulationConfig&)>{
           [](SimulationConfig& c) { c.threads = -2; },
           [](SimulationConfig& c) { c.move_y_attr = ""; },
           [](SimulationConfig& c) { c.grid_width = 0; },
           [](SimulationConfig& c) { c.grid_height = -1; },
           [](SimulationConfig& c) { c.step_per_tick = -1.0; },
           [](SimulationConfig& c) { c.artifacts.flight_recorder_ticks = -1; }}) {
    SimulationConfig config;
    mutate(config);
    Status st = config.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
    EXPECT_EQ(0u, st.message().find("SimulationConfig:"))
        << "unexpected vocabulary: " << st.ToString();
  }
  EXPECT_TRUE(SimulationConfig{}.Validate().ok());
  // Movement disabled: grid knobs are irrelevant and not validated.
  SimulationConfig no_movement;
  no_movement.move_x_attr.clear();
  no_movement.grid_width = 0;
  EXPECT_TRUE(no_movement.Validate().ok());
}

TEST(SimulationConfigTest, BuildRejectsWhatValidateRejects) {
  auto builder = TinyWorldBuilder(1);
  builder->config().threads = -3;
  auto sim = builder->Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, sim.status().code());
  EXPECT_NE(sim.status().message().find("SimulationConfig:"),
            std::string::npos);
}

// ------------------------------------------------- executor API seam

TEST(ExecutorSeamTest, SharedExecutorMatchesPrivatePool) {
  const ScenarioParams params = SmallParams();
  SimulationConfig config = ServeConfig(EvaluatorMode::kIndexed, 4);
  auto own_pool = ScenarioRegistry::Global().BuildSimulation("battle", params,
                                                             config);
  ASSERT_TRUE(own_pool.ok());

  auto shared = std::make_shared<exec::ThreadPool>(4);
  SimulationBuilder builder;
  config.threads = 1;  // the executor must win over config.threads
  ASSERT_TRUE(ScenarioRegistry::Global()
                  .PrepareBuilder("battle", params, config, &builder)
                  .ok());
  builder.Executor(shared);
  auto sim = builder.Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(4, (*sim)->threads());
  EXPECT_EQ(shared.get(), (*sim)->executor().get());

  ASSERT_TRUE((*own_pool)->Run(6).ok());
  ASSERT_TRUE((*sim)->Run(6).ok());
  EXPECT_TRUE((*sim)->table().Equals((*own_pool)->table()))
      << (*sim)->table().DiffString((*own_pool)->table());
}

}  // namespace
}  // namespace sgl
