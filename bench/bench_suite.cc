// The unified benchmark suite: every registered scenario, swept across
// {naive, indexed, adaptive} evaluators x worker-thread counts x unit
// scales x aggregate sharing {on, off} x compiled evaluation {on, off} x
// disk-backed storage {off, on}.
//
// Each (scenario, units) group elects the first completed cell as its
// reference; every other cell's final environment table must be
// bit-identical to it (the PR-2 determinism contract, now enforced
// across the whole scenario library — including sharing on vs off — on
// every benchmark run), and every cell must satisfy its scenario's
// invariant checker.
//
// Results go to a standardized BENCH_scenarios.json: one "meta" line
// followed by one line per cell with ns/tick, rows, rows scanned, index
// probes, sharing counters (shared_hits / memo_entries), and the
// per-phase breakdown from PhaseStatsRegistry — the repo's perf
// trajectory, consumed by tools/bench_compare.py in CI.
//
//   bench_suite --quick --json BENCH_scenarios.json   # the CI smoke run
//   bench_suite --scenarios battle,ctf --units 1000,4000 --threads 1,2,8
//   bench_suite --list
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/simulation.h"
#include "scenario/scenario.h"
#include "serve/session_manager.h"
#include "util/timer.h"

namespace sgl {
namespace {

struct CellResult {
  double seconds = 0.0;
  EnvironmentTable table{Schema()};
  int32_t rows = 0;
  int64_t rows_scanned = 0;
  int64_t index_probes = 0;
  int64_t shared_hits = 0;
  int64_t memo_entries = 0;
  std::vector<std::pair<std::string, double>> phase_seconds;
  std::string metrics_json;  // --metrics: deterministic snapshot
};

// Fresh world directory for a storage=on repetition. Each rep gets its
// own: re-Building over a directory that already holds a committed
// world deliberately refuses to tick (the engine demands an explicit
// RestoreFrom), and the bench wants cold-start cost anyway.
std::string MakeWorldDir() {
  char tmpl[] = "/tmp/sgl_bench_world_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return std::string(tmpl);
}

void RemoveWorldDir(const std::string& dir) {
  for (const char* file : {"pages.sgl", "wal.sgl", "MANIFEST.sgl",
                           "MANIFEST.sgl.tmp", "inlet.sgl"}) {
    std::remove((dir + "/" + file).c_str());
  }
  ::rmdir(dir.c_str());
}

// Runs one (scenario, params, mode, threads, sharing) cell `reps` times
// and keeps the fastest repetition — identical seeds make every
// repetition bit-identical, so repeating only filters scheduler noise
// out of the timing, which matters for the sub-millisecond CI cells the
// regression gate compares across runs.
CellResult RunCell(const std::string& scenario, const ScenarioParams& params,
                   EvaluatorMode mode, int32_t threads, bool sharing,
                   bool compiled, bool storage, int64_t ticks, int32_t reps,
                   bool want_metrics) {
  CellResult best;
  for (int32_t rep = 0; rep < reps; ++rep) {
    SimulationConfig config;
    config.eval_mode = mode;
    config.threads = threads;
    config.sharing = sharing;
    config.compiled = compiled;
    std::string world_dir;
    if (storage) {
      world_dir = MakeWorldDir();
      config.storage.path = world_dir;
      config.storage.page_size = 4096;
    }
    auto sim = ScenarioRegistry::Global().BuildSimulation(scenario, params,
                                                          config);
    if (!sim.ok()) {
      std::fprintf(stderr, "%s: setup failed: %s\n", scenario.c_str(),
                   sim.status().ToString().c_str());
      std::exit(1);
    }
    Timer timer;
    Status st = (*sim)->Run(ticks);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: run failed: %s\n", scenario.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    CellResult cell;
    cell.seconds = timer.Seconds();
    // Unlink the world files now (the store's open descriptors survive
    // the unlink); nothing below reads them back.
    if (!world_dir.empty()) RemoveWorldDir(world_dir);
    if (rep > 0 && cell.seconds >= best.seconds) continue;
    cell.table = (*sim)->table().Clone();
    cell.rows = (*sim)->table().NumRows();
    cell.shared_hits = (*sim)->shared_hits();
    cell.memo_entries = (*sim)->memo_entries();
    if (want_metrics) {
      // Deterministic subset only: identical seeds make the snapshot
      // identical across reps and thread-count-independent, so diffs in
      // bench_compare.py reflect code changes, not schedules.
      cell.metrics_json = (*sim)->MetricsJson(/*deterministic_only=*/true);
    }
    for (const auto& [name, stats] : (*sim)->stats().stats()) {
      cell.rows_scanned += stats.rows_scanned();
      cell.index_probes += stats.index_probes();
      cell.phase_seconds.push_back({name, stats.seconds()});
    }
    st = ScenarioRegistry::Global().CheckInvariants(scenario, params, **sim);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: INVARIANT VIOLATION: %s\n", scenario.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    best = std::move(cell);
  }
  return best;
}

// Runs one multi-tenant serving cell: `sessions` same-seed copies of the
// scenario co-scheduled round-robin on one shared pool. ns/tick is per
// session-tick, so a sessions=N row is directly comparable to the solo
// rows — the gap is the cost (or win) of co-scheduling. Same seeds mean
// every session must finish bit-identical to the first; that cross-check
// rides on every benchmark run, like the solo determinism gate.
CellResult RunServeCell(const std::string& scenario,
                        const ScenarioParams& params, int32_t threads,
                        int32_t sessions, int64_t ticks, int32_t reps,
                        bool want_metrics) {
  CellResult best;
  for (int32_t rep = 0; rep < reps; ++rep) {
    serve::SessionManagerOptions options;
    options.threads = threads;
    options.max_sessions = sessions;
    options.max_total_rows = int64_t{1} << 40;  // admission is not the test
    auto manager = serve::SessionManager::Create(options);
    if (!manager.ok()) {
      std::fprintf(stderr, "%s: serve setup failed: %s\n", scenario.c_str(),
                   manager.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<serve::SessionId> ids;
    for (int32_t s = 0; s < sessions; ++s) {
      SimulationConfig config;
      config.eval_mode = EvaluatorMode::kIndexed;
      SimulationBuilder builder;
      Status st = ScenarioRegistry::Global().PrepareBuilder(scenario, params,
                                                            config, &builder);
      if (st.ok()) {
        auto id = (*manager)->Open(builder);
        st = id.status();
        if (id.ok()) ids.push_back(*id);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "%s: serve session open failed: %s\n",
                     scenario.c_str(), st.ToString().c_str());
        std::exit(1);
      }
    }
    Timer timer;
    for (serve::SessionId id : ids) {
      (void)(*manager)->ScheduleTicks(id, ticks);
    }
    Status st = (*manager)->RunUntilIdle();
    if (!st.ok()) {
      std::fprintf(stderr, "%s: serve run failed: %s\n", scenario.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    CellResult cell;
    cell.seconds = timer.Seconds();
    const Simulation& first = *(*manager)->session(ids[0]);
    for (size_t s = 1; s < ids.size(); ++s) {
      const Simulation& other = *(*manager)->session(ids[s]);
      if (!first.table().Equals(other.table())) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s sessions=%d threads=%d: "
                     "same-seed session %zu diverged:\n%s\n",
                     scenario.c_str(), sessions, threads, s,
                     first.table().DiffString(other.table()).c_str());
        std::exit(1);
      }
    }
    if (rep > 0 && cell.seconds >= best.seconds) continue;
    cell.table = first.table().Clone();
    cell.rows = first.table().NumRows();
    cell.shared_hits = first.shared_hits();
    cell.memo_entries = first.memo_entries();
    if (want_metrics) {
      cell.metrics_json = first.MetricsJson(/*deterministic_only=*/true);
    }
    best = std::move(cell);
  }
  return best;
}

std::string CellJson(const std::string& scenario, const char* mode,
                     int32_t units, int32_t threads, bool sharing,
                     bool compiled, bool storage, int64_t ticks,
                     const CellResult& cell, int32_t sessions = 1) {
  // Per session-tick, so multi-tenant rows compare against solo rows.
  const double ns_per_tick =
      cell.seconds / static_cast<double>(ticks * sessions) * 1e9;
  std::ostringstream os;
  os << "{\"scenario\": \"" << scenario << "\", \"mode\": \"" << mode
     << "\", \"units\": " << units << ", \"threads\": " << threads
     << ", \"sessions\": " << sessions
     << ", \"sharing\": \"" << (sharing ? "on" : "off") << "\""
     << ", \"compiled\": \"" << (compiled ? "on" : "off") << "\""
     << ", \"storage\": \"" << (storage ? "on" : "off") << "\""
     << ", \"ticks\": " << ticks << ", \"seconds\": " << cell.seconds
     << ", \"ns_per_tick\": " << static_cast<int64_t>(ns_per_tick)
     << ", \"rows\": " << cell.rows
     << ", \"rows_scanned\": " << cell.rows_scanned
     << ", \"index_probes\": " << cell.index_probes
     << ", \"shared_hits\": " << cell.shared_hits
     << ", \"memo_entries\": " << cell.memo_entries
     << ", \"deterministic\": true, \"phases\": [";
  bool first = true;
  for (const auto& [name, seconds] : cell.phase_seconds) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << name << "\", \"ns_per_tick\": "
       << static_cast<int64_t>(seconds / static_cast<double>(ticks) * 1e9)
       << "}";
  }
  os << "]";
  if (!cell.metrics_json.empty()) os << ", \"metrics\": " << cell.metrics_json;
  os << "}";
  return os.str();
}

}  // namespace
}  // namespace sgl

int main(int argc, char** argv) {
  using namespace sgl;
  BenchArgs args = ParseBenchArgsOrExit(
      argc, argv, "bench_suite",
      "  the scenario-library sweep: every cell is cross-checked for\n"
      "  bit-exact determinism against its (scenario, units) reference\n");

  auto& registry = ScenarioRegistry::Global();
  if (args.list) {
    for (const std::string& name : registry.List()) {
      auto def = registry.Get(name);
      std::printf("%-14s %s\n", name.c_str(), (*def)->description.c_str());
    }
    return 0;
  }

  const int64_t ticks = args.ticks > 0 ? args.ticks
                        : args.quick   ? BenchTicks(15)
                                       : BenchTicks(25);
  // The quick CI preset repeats each cell and keeps the fastest run:
  // its cells are sub-millisecond-per-tick and would otherwise be at
  // the mercy of runner noise in the regression gate.
  const int32_t reps = args.quick ? 5 : 1;
  const uint64_t seed = args.SeedOr(7);
  const int32_t naive_max = args.NaiveMaxOr(2000);
  const std::vector<int32_t> unit_counts =
      args.UnitsOr(args.quick ? std::vector<int32_t>{250}
                              : std::vector<int32_t>{500, 2000});
  const std::vector<int32_t> thread_counts =
      args.ThreadsOr(args.quick ? std::vector<int32_t>{1, 2}
                                : std::vector<int32_t>{1, 4});
  std::vector<std::string> scenarios =
      args.scenarios.empty() ? registry.List() : args.scenarios;
  const std::vector<std::string> modes =
      args.modes.empty()
          ? std::vector<std::string>{"naive", "indexed", "adaptive"}
          : args.modes;
  // Sharing is swept on and off by default: the off rows keep a
  // regression gate on the probe-per-unit path, and on-vs-off in one
  // file documents what the memoization layer buys per scenario.
  const std::vector<std::string> sharing_sweep =
      args.sharing.empty() ? std::vector<std::string>{"on", "off"}
                           : args.sharing;
  // Compiled evaluation is likewise swept both ways by default: the off
  // rows keep the interpreter's perf visible (it is still the semantics
  // oracle), and on-vs-off in one file documents what the bytecode VM
  // buys per scenario.
  const std::vector<std::string> compiled_sweep =
      args.compiled.empty() ? std::vector<std::string>{"on", "off"}
                            : args.compiled;
  // Disk-backed storage is swept both ways by default: the off rows are
  // the classic in-memory engine (legacy baselines carry storage="off"
  // implicitly), and the on rows keep a trajectory on what the WAL and
  // checkpoints cost per tick. Every storage cell is bit-checked against
  // the same in-memory group reference, so the durability contract
  // rides on every benchmark run too.
  const std::vector<std::string> storage_sweep =
      args.storage.empty() ? std::vector<std::string>{"off", "on"}
                           : args.storage;
  // Multi-tenant serving rows (SessionManager round-robin over a shared
  // pool). The solo sweep's rows carry sessions=1 implicitly; these add
  // a perf trajectory on co-scheduling overhead per session-tick.
  const std::vector<int32_t> session_counts =
      args.SessionsOr(args.quick ? std::vector<int32_t>{2}
                                 : std::vector<int32_t>{2, 4});
  for (const std::string& name : scenarios) {
    auto def = registry.Get(name);
    if (!def.ok()) {
      std::fprintf(stderr, "%s\n", def.status().ToString().c_str());
      return 2;
    }
  }

  JsonLines json(args.json_path.empty() ? std::string("BENCH_scenarios.json")
                                        : args.json_path);
  {
    std::ostringstream meta;
    meta << "{\"bench\": \"scenarios\", \"ticks\": " << ticks
         << ", \"seed\": " << seed << ", \"naive_max\": " << naive_max << "}";
    json.WriteLine(meta.str());
  }

  std::printf("%-14s %-8s %7s %8s %8s %9s %8s %14s %9s\n", "scenario",
              "mode", "units", "threads", "sharing", "compiled", "storage",
              "ns/tick", "speedup");
  // One line per (scenario, units) group naming the cell its others were
  // checked against, for the closing summary.
  std::vector<std::string> references;
  for (const std::string& scenario : scenarios) {
    for (int32_t units : unit_counts) {
      ScenarioParams params;
      params.units = units;
      params.seed = seed;
      bool have_reference = false;
      bool naive_ran = false;
      std::string reference_cell;
      EnvironmentTable reference{Schema()};
      double base_ns = 0.0;  // the group's first cell, for the speedup column
      for (const std::string& mode_name : modes) {
        auto parsed = ParseEvaluatorMode(mode_name);
        if (!parsed.ok()) {
          std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
          return 2;
        }
        EvaluatorMode mode = *parsed;
        if (mode == EvaluatorMode::kNaive && units > naive_max) continue;
        for (int32_t threads : thread_counts) {
          for (const std::string& sharing_name : sharing_sweep) {
            for (const std::string& compiled_name : compiled_sweep) {
              for (const std::string& storage_name : storage_sweep) {
                const bool sharing = sharing_name == "on";
                const bool compiled = compiled_name == "on";
                const bool storage = storage_name == "on";
                CellResult cell =
                    RunCell(scenario, params, mode, threads, sharing, compiled,
                            storage, ticks, reps, args.metrics);
                naive_ran = naive_ran || mode == EvaluatorMode::kNaive;
                if (!have_reference) {
                  have_reference = true;
                  reference_cell = mode_name + " threads=" +
                                   std::to_string(threads) +
                                   " sharing=" + sharing_name +
                                   " compiled=" + compiled_name +
                                   " storage=" + storage_name;
                  reference = cell.table.Clone();
                  base_ns = cell.seconds / static_cast<double>(ticks) * 1e9;
                } else if (!reference.Equals(cell.table)) {
                  std::fprintf(
                      stderr,
                      "DETERMINISM VIOLATION: %s units=%d %s threads=%d "
                      "sharing=%s compiled=%s storage=%s diverged from the "
                      "group reference:\n%s\n",
                      scenario.c_str(), units, mode_name.c_str(), threads,
                      sharing_name.c_str(), compiled_name.c_str(),
                      storage_name.c_str(),
                      reference.DiffString(cell.table).c_str());
                  return 1;
                }
                const double ns =
                    cell.seconds / static_cast<double>(ticks) * 1e9;
                std::printf(
                    "%-14s %-8s %7d %8d %8s %9s %8s %14.0f %8.2fx\n",
                    scenario.c_str(), mode_name.c_str(), units, threads,
                    sharing_name.c_str(), compiled_name.c_str(),
                    storage_name.c_str(), ns, ns > 0 ? base_ns / ns : 0.0);
                std::fflush(stdout);
                json.WriteLine(CellJson(scenario, mode_name.c_str(), units,
                                        threads, sharing, compiled, storage,
                                        ticks, cell));
              }
            }
          }
        }
      }
      if (!have_reference) continue;
      // Every cell equals the first, so where a naive cell ran, every
      // cell also equals the naive oracle.
      references.push_back(
          scenario + " units=" + std::to_string(units) + ": " +
          (naive_ran ? "the naive cell"
                     : "the first cell run (" + reference_cell +
                           "); no naive cell ran" +
                           (units > naive_max ? " (units > --naive-max)"
                                              : "")));
    }
  }
  // ------------------------------------------------- multi-tenant sweep
  std::printf("\nmulti-tenant serving (indexed, per session-tick ns):\n");
  for (const std::string& scenario : scenarios) {
    for (int32_t units : unit_counts) {
      ScenarioParams params;
      params.units = units;
      params.seed = seed;
      for (int32_t threads : thread_counts) {
        for (int32_t sessions : session_counts) {
          CellResult cell = RunServeCell(scenario, params, threads, sessions,
                                         ticks, reps, args.metrics);
          const double ns =
              cell.seconds / static_cast<double>(ticks * sessions) * 1e9;
          std::printf("%-14s %-8s %7d %8d %8s %9s %8s %14.0f %9s\n",
                      scenario.c_str(), "serve", units, threads, "on", "on",
                      "off", ns,
                      ("s=" + std::to_string(sessions)).c_str());
          std::fflush(stdout);
          json.WriteLine(CellJson(scenario, "indexed", units, threads,
                                  /*sharing=*/true, /*compiled=*/true,
                                  /*storage=*/false, ticks, cell, sessions));
        }
      }
    }
  }
  std::printf("\nevery solo cell bit-identical to its (scenario, units) "
              "reference, every serving session to its cell's first "
              "session; all invariants held. References:\n");
  for (const std::string& line : references) {
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}
