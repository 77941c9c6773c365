// Durable-world tour: run a battle on disk, crash nothing, travel in
// time anyway.
//
//   timetravel [WORLD_DIR]   # default: ./timetravel_world
//
// The run advances the battle scenario 25 ticks against a disk-backed
// world (checkpointed pages + write-ahead delta log under WORLD_DIR,
// checkpoint every 20 ticks), then:
//
//   1. re-opens the directory read-only and materializes a past tick
//      straight from checkpoint + WAL replay;
//   2. rewinds the live simulation to that tick with RestoreFrom and
//      re-runs to the end, verifying the future replays bit-exactly.
//
// The same directory survives process death: run this once, kill it
// mid-run, run it again — RestoreFrom picks up the last committed tick.
#include <cstdio>
#include <string>

#include "scenario/scenario.h"
#include "storage/world_store.h"

using namespace sgl;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "./timetravel_world";

  ScenarioParams params;
  params.units = 200;
  params.density = 0.02;
  params.seed = 5;

  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.storage.path = dir;
  config.storage.page_size = 4096;
  config.storage.checkpoint_every = 20;

  auto& registry = ScenarioRegistry::Global();
  auto sim = registry.BuildSimulation("battle", params, config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }

  // An earlier run left a world here? Resume it instead of restarting.
  // (On a fresh directory this restores the tick-0 image Build just
  // checkpointed, which is a no-op.)
  {
    Status st = (*sim)->RestoreFrom(dir);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if ((*sim)->tick_count() > 0) {
      std::printf("resumed %s at tick %lld\n", dir.c_str(),
                  static_cast<long long>((*sim)->tick_count()));
    }
  }

  // Advance 25 ticks, nudged off checkpoint boundaries: a checkpoint
  // truncates the WAL, and we want a non-empty tail to replay below.
  const int64_t start = (*sim)->tick_count();
  int64_t target = start + 25;
  if (target % config.storage.checkpoint_every == 0) ++target;
  {
    Status st = (*sim)->Run(target - start);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const EnvironmentTable final_state = (*sim)->table().Clone();
  std::printf("world at tick %lld: %d rows, durable in %s\n",
              static_cast<long long>((*sim)->tick_count()),
              (*sim)->table().NumRows(), dir.c_str());

  // 1. Read-only time travel: a second store on the same directory
  //    materializes any tick the log covers, without touching the run.
  auto store = storage::WorldStore::Open(config.storage, nullptr);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  // The oldest reachable tick is the last checkpoint; anything after it
  // is checkpoint + WAL replay. Aim for the checkpoint itself (or the
  // resume point, if this stretch never crossed a checkpoint boundary).
  int64_t past =
      (target - 1) / config.storage.checkpoint_every *
      config.storage.checkpoint_every;
  if (past < start) past = start;
  auto world = (*store)->Materialize(past);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  std::printf("materialized tick %lld from checkpoint + WAL replay (%d rows)\n",
              static_cast<long long>(world->tick), world->table.NumRows());
  store->reset();

  // 2. Rewind the live simulation and replay the future.
  Status st = (*sim)->RestoreFrom(dir, past);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  st = (*sim)->Run(target - past);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (!(*sim)->table().Equals(final_state)) {
    std::fprintf(stderr, "replayed future diverged:\n%s\n",
                 (*sim)->table().DiffString(final_state).c_str());
    return 1;
  }
  std::printf("rewound to tick %lld and replayed to %lld: bit-exact\n",
              static_cast<long long>(past), static_cast<long long>(target));
  std::printf("\nstorage metrics:\n%s", (*sim)->MetricsJson().c_str());
  return 0;
}
