// sgl_bench — the repository's end-to-end benchmark harness.
//
// Runs one named workload of the SGL engine through its public API in a
// closed loop: the next tick (or scheduling round) is issued only when the
// previous one has returned. The harness times every call into a layer from
// outside the engine (ScenarioDef::world, SimulationBuilder::Build,
// Simulation::Tick / Checkpoint / RestoreFrom, SessionManager::Open /
// RunRound / Inject, ActionInlet::Push), reads the counters the engine
// already exports (Simulation::stats() and the metrics registry behind
// MetricsJson()), checks every output, and prints one JSON result line
// last:
//
//   sgl_bench --workload battle-10k --seed 1 --seconds 20 --trace 0 --out DIR
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced, each over half the timed work (at least
// kMinTimedTicks), prints the per-layer metrics, and writes
// the span file (spans.json, Chrome trace-event format) and the per-layer
// self-time table (layers.txt) into DIR. README.md in this directory lists
// the workloads and metrics.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "scenario/scenario.h"
#include "serve/session_manager.h"

namespace fs = std::filesystem;

namespace sgl {
namespace bench {
namespace {

constexpr int32_t kUnits = 10000;
// Medians are taken over every timed tick; tail percentiles are medians
// over kTailBlocks consecutive stretches of the timed loop (see
// TailPercentile). At kMinTimedTicks a stretch is 20 ticks (about 2 s of
// battle), its p95 the second-slowest of them.
constexpr int64_t kMinTimedTicks = 200;
constexpr int32_t kTailBlocks = 10;

// battle-10k.
constexpr int32_t kBattleThreads = 2;  // SimulationConfig::threads
constexpr double kBattleTicksPerSecond = 10.0;
constexpr int32_t kSetups = 5;       // setup_s samples
constexpr int32_t kWarmupTicks = 5;  // per set-up; excluded from timing
constexpr int32_t kRestores = 24;    // recover_s samples
// A few "hold position" orders per tick, each rewriting one unit's posx
// with the value it already has, so the inlet path is exercised without
// changing the simulated world.
constexpr int32_t kHoldsPerTick = 4;
constexpr char kHoldAttr[] = "posx";

// serve-durable.
constexpr int32_t kSessions = 2;
constexpr int32_t kServeThreads = 2;
constexpr int32_t kNudgesPerSession = 8;  // injected before every round
// Rounds between checkpoints. A checkpoint fsyncs, and on a shared host an
// fsync now and then stalls for tens of milliseconds; with an eighth of the
// rounds checkpointing (three or four in each p95 stretch), stalls must hit
// two of them in most stretches before they alone set tick_ms_p95.
constexpr int64_t kCheckpointEvery = 8;
// An epidemic's first ~25 ticks (the outbreak) cost two to three times
// what later ticks do, and how much depends on the seed; warming up past
// them keeps the outbreak out of the timed percentiles.
constexpr int32_t kServeWarmupRounds = 30;
constexpr int32_t kServeSetups = 3;  // each one pays the outbreak again
// Rounds run after the timed loop without a checkpoint, so every restored
// copy replays this many WAL ticks (plus those since the last checkpoint).
constexpr int64_t kWalRounds = 24;
constexpr double kServeRoundsPerSecond = 15.0;
constexpr int32_t kServeRestores = 16;  // recover_s samples

using Counters = std::map<std::string, int64_t>;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Linearly interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// The q-th percentile of each of kTailBlocks consecutive, equal stretches
// of `v` (samples in the order they were taken), and the median of those.
// On a shared host a contention episode of a few seconds slows every tick
// it covers; over the whole run that alone sets p95, but it lifts the tail
// of only the few stretches it falls in. A slow path of the program recurs
// in every stretch and moves the median stretch.
double TailPercentile(const std::vector<double>& v, double q) {
  std::vector<double> tails;
  for (int32_t b = 0; b < kTailBlocks; ++b) {
    const size_t lo = v.size() * b / kTailBlocks;
    const size_t hi = v.size() * (b + 1) / kTailBlocks;
    if (hi > lo) {
      tails.push_back(Percentile({v.begin() + lo, v.begin() + hi}, q));
    }
  }
  return Median(std::move(tails));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0;
  int64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- spans

// One timed interval. Spans this harness records sit on track 0 (the
// driving thread); spans imported from an engine tracer keep its track
// (0 = the tick runner, which is the driving thread; 1 + c = the worker
// running chunk c).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t tid = 0;
  int32_t parent = -1;  // filled in by Analyze for track-0 spans
};

// In-memory span store, written out when the run ends. Disabled, every
// call is a branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int32_t Open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, 0, -1});
    return static_cast<int32_t>(spans_.size()) - 1;
  }

  void Close(int32_t id) {
    if (id >= 0) spans_[id].end_ns = NowNs();
  }

  // Append every span `tracer` holds, shifted onto this harness's clock
  // (both are steady_clock; only the epochs differ).
  void Import(const obs::Tracer& tracer) {
    const int64_t offset = NowNs() - tracer.NowNs();
    for (const obs::TraceEvent& e : tracer.Collect()) {
      if (e.dur_ns < 0) continue;  // instant
      spans_.push_back(Span{e.name, e.ts_ns + offset,
                            e.ts_ns + e.dur_ns + offset, e.tid, -1});
    }
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), id_(log->Open(name)) {}
  ~Scope() { log_->Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// ------------------------------------------------------ failure accounting

// Attempted and failed operations per kind, so the failure share of a
// change can be compared with its parent's.
class Ops {
 public:
  Ops() {
    for (const char* kind : {"tick", "inject", "checkpoint", "restore",
                             "check"}) {
      kinds_.emplace_back(kind, Count{});
    }
  }

  // `n` operations of `kind`, all succeeded or all failed.
  void Note(const std::string& kind, bool ok, int64_t n = 1) {
    for (auto& [name, count] : kinds_) {
      if (name != kind) continue;
      count.attempted += n;
      if (!ok) count.failed += n;
      return;
    }
  }

  // An output check; a mismatch is a failed operation and fails the run.
  void Check(bool ok, const std::string& what) {
    Note("check", ok);
    if (!ok) {
      std::fprintf(stderr, "sgl_bench: check failed: %s\n", what.c_str());
    }
  }

  struct Count {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  const std::vector<std::pair<std::string, Count>>& kinds() const {
    return kinds_;
  }
  int64_t attempted() const {
    int64_t n = 0;
    for (const auto& kind : kinds_) n += kind.second.attempted;
    return n;
  }
  int64_t failed() const {
    int64_t n = 0;
    for (const auto& kind : kinds_) n += kind.second.failed;
    return n;
  }

 private:
  std::vector<std::pair<std::string, Count>> kinds_;
};

// ------------------------------------------------------------ counters

Counters Values(const Simulation& sim) {
  Counters out;
  for (const auto& [name, value] : sim.metrics().Values()) out[name] = value;
  return out;
}

void AddInto(Counters* sum, const Counters& c) {
  for (const auto& [name, value] : c) (*sum)[name] += value;
}

int64_t Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// Sum of every counter whose name contains `infix` and ends in `suffix`.
double SumWhere(const Counters& c, const std::string& infix,
                 const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : c) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        name.find(infix) != std::string::npos) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

// One integer field of the flat JSON object SessionManager::MetricsJson
// returns.
int64_t JsonField(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  return at == std::string::npos
             ? 0
             : std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

// ------------------------------------------------------------ workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 10;
  bool trace = false;
  std::string out;
};

// Timed ticks (or rounds) of one run: `per_second` is the workload's
// nominal rate on a 4-vCPU host, so the timed loop lasts about --seconds
// there; the work, and hence the simulated trajectory, is the same on
// every commit, whatever its speed. A traced run times two passes
// (untraced, then traced) of half that each, so it takes about as long as
// an untraced run; its per-layer metrics are per tick.
int64_t TimedTicks(double per_second, const Options& opt) {
  const double nominal = per_second * static_cast<double>(opt.seconds) *
                         (opt.trace ? 0.5 : 1.0);
  return std::max<int64_t>(kMinTimedTicks, std::llround(nominal));
}

// The plain configuration every output is checked against: no aggregate
// sharing and the AST interpreter instead of the bytecode VM. It runs on
// four threads only to keep the check short; every thread count is
// bit-exact.
SimulationConfig PlainConfig() {
  SimulationConfig config;
  config.sharing = false;
  config.compiled = false;
  config.threads = 4;
  return config;
}

// World generation, timed as the scenario layer.
Result<EnvironmentTable> GenerateWorld(const ScenarioDef& def,
                                       const ScenarioParams& params,
                                       SpanLog* spans, double* world_s) {
  const int64_t start = NowNs();
  Scope span(spans, "scenario.world");
  Result<EnvironmentTable> table = def.world(params);
  *world_s = Seconds(NowNs() - start);
  return table;
}

// Stage a generated world on `builder` as ScenarioRegistry::PrepareBuilder
// does (which would generate the world inside, untimed apart).
void Stage(const ScenarioDef& def, const ScenarioParams& params,
           SimulationConfig config, EnvironmentTable table,
           SimulationBuilder* builder) {
  config.seed = params.seed;
  builder->SetTable(std::move(table))
      .SetName(def.name)
      .SetConfig(std::move(config))
      .Apply([&def, &params](SimulationBuilder& b) {
        return def.configure(params, b);
      });
}

Status TimedTick(Simulation* sim, SpanLog* spans, Ops* ops) {
  Status st;
  {
    Scope span(spans, "engine.tick");
    st = sim->Tick();
  }
  ops->Note("tick", st.ok());
  return st;
}

// What one pass of a workload measured.
struct Pass {
  std::vector<double> setup_s;  // one per set-up, spread over the run
  double world_s = 0.0;         // parts of the kept (first) set-up
  double build_s = 0.0;
  double warmup_s = 0.0;
  double rss_after_build_mb = 0.0;

  int64_t ticks = 0;       // timed ticks (session-ticks on serve-durable)
  int64_t unit_ticks = 0;  // live units x ticks over the timed loop
  double timed_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> tick_ms;  // per tick, or per round on serve-durable
  std::vector<double> action_ms;
  std::vector<double> inject_us;
  std::vector<double> checkpoint_ms;
  Counters before;  // registry values around the timed loop
  Counters after;
  int64_t rejected = 0;  // serve.rejected

  // Filled by the checks after the final pass.
  std::vector<double> recover_s;
  std::vector<double> restore_build_s;
  std::vector<double> replay_ticks;

  void AddSetup(double world, double build, double warmup) {
    if (setup_s.empty()) {
      world_s = world;
      build_s = build;
      warmup_s = warmup;
    }
    setup_s.push_back(world + build + warmup);
  }

  double unit_ticks_per_s() const {
    return Ratio(static_cast<double>(unit_ticks), timed_s);
  }
};

// Run `ref` to tick `target` in `slots` equal segments, calling
// `between(slot)` after each. The checks spread their repeated samples
// (set-ups, restores) over the reference run this way, so the samples of
// one run meet several host-load episodes instead of one.
Status Interleave(Simulation* ref, int64_t target, int32_t slots,
                  const std::function<Status(int32_t)>& between) {
  const int64_t first = ref->tick_count();
  for (int32_t slot = 0; slot < slots; ++slot) {
    const int64_t until = first + (target - first) * (slot + 1) / slots;
    SGL_RETURN_NOT_OK(ref->Run(until - ref->tick_count()));
    SGL_RETURN_NOT_OK(between(slot));
  }
  return Status::OK();
}

// ------------------------------------------------------------ battle-10k

class BattleBench {
 public:
  explicit BattleBench(const Options& opt) : opt_(opt) {
    params_.units = kUnits;
    params_.seed = opt.seed;
    config_.threads = kBattleThreads;
  }

  // One pass: a set-up, then the timed loop. `trace_prefix` non-empty turns
  // the engine's own tracer on.
  Result<Pass> Run(const std::string& trace_prefix, SpanLog* spans, Ops* ops) {
    SimulationConfig config = config_;
    if (!trace_prefix.empty()) {
      config.artifacts.trace_path = trace_prefix + ".json";
    }
    Pass pass;
    SGL_ASSIGN_OR_RETURN(sim_, SetUp(config, &pass, spans, ops));

    const EnvironmentTable& table = sim_->table();
    const AttrId hold = table.schema().Find(kHoldAttr);
    if (hold < 0) {
      return Status::Invalid("battle has no attribute '", kHoldAttr, "'");
    }
    std::mt19937_64 rng(opt_.seed);
    std::vector<int64_t> pushed_ns;
    pass.ticks = TimedTicks(kBattleTicksPerSecond, opt_);
    pass.before = Values(*sim_);
    const int64_t loop_start = NowNs();
    {
      Scope timed(spans, "bench.timed");
      for (int64_t k = 0; k < pass.ticks; ++k) {
        const int32_t rows = table.NumRows();
        pushed_ns.clear();
        const int64_t applied_before = sim_->inlet()->applied();
        for (int32_t h = 0; h < kHoldsPerTick && rows > 0; ++h) {
          const RowId row = static_cast<RowId>(rng() % rows);
          serve::InjectedAction action;
          action.unit_key = table.KeyAt(row);
          action.attr = kHoldAttr;
          action.op = serve::InjectedAction::Op::kSet;
          action.value = table.Get(row, hold);
          const int64_t start = NowNs();
          {
            Scope span(spans, "inlet.push");
            sim_->inlet()->Push(std::move(action));
          }
          pushed_ns.push_back(NowNs());
          pass.inject_us.push_back(
              static_cast<double>(pushed_ns.back() - start) * 1e-3);
        }
        pass.unit_ticks += rows;
        const int64_t start = NowNs();
        SGL_RETURN_NOT_OK(TimedTick(sim_.get(), spans, ops));
        const int64_t end = NowNs();
        pass.tick_ms.push_back(Millis(end - start));
        // Every hold order must be applied by this tick; one that is not
        // (dropped, or left queued) is a failed inject.
        const int64_t pushed = static_cast<int64_t>(pushed_ns.size());
        const int64_t applied = std::min(
            pushed, sim_->inlet()->applied() - applied_before);
        ops->Note("inject", true, applied);
        ops->Note("inject", false, pushed - applied);
        for (int64_t t : pushed_ns) {
          if (applied == pushed) pass.action_ms.push_back(Millis(end - t));
        }
      }
    }
    pass.timed_s = Seconds(NowNs() - loop_start);
    pass.peak_rss_mb = PeakRssMb();
    pass.after = Values(*sim_);
    return pass;
  }

  // Output checks after the final pass: scenario invariants, then the plain
  // reference run, which must end bit-identical to the live world. Spread
  // over the reference run: the remaining set-up samples, and RestoreFrom
  // of a plain checkpoint of the final world, each restored world compared
  // with the live one.
  Status Check(Pass* pass, SpanLog* spans, Ops* ops) {
    {
      Scope span(spans, "check.invariants");
      const Status st = ScenarioRegistry::Global().CheckInvariants(
          "battle", params_, *sim_);
      ops->Check(st.ok(), "invariants: " + st.ToString());
    }

    const std::string dir = opt_.out + "/checkpoint";
    fs::remove_all(dir);
    int64_t start = NowNs();
    Status st;
    {
      Scope span(spans, "storage.checkpoint");
      st = sim_->Checkpoint(dir);
    }
    ops->Note("checkpoint", st.ok());
    SGL_RETURN_NOT_OK(st);
    pass->checkpoint_ms.push_back(Millis(NowNs() - start));
    start = NowNs();
    std::unique_ptr<Simulation> restored;
    {
      Scope span(spans, "storage.restore_build");
      SGL_ASSIGN_OR_RETURN(restored, ScenarioRegistry::Global().BuildSimulation(
                                         "battle", params_, config_));
    }
    pass->restore_build_s.push_back(Seconds(NowNs() - start));

    Scope span(spans, "check.reference");
    SGL_ASSIGN_OR_RETURN(std::unique_ptr<Simulation> ref,
                         ScenarioRegistry::Global().BuildSimulation(
                             "battle", params_, PlainConfig()));
    SGL_RETURN_NOT_OK(ref->inlet()->Replay(sim_->inlet()->Log()));
    SGL_RETURN_NOT_OK(Interleave(
        ref.get(), sim_->tick_count(), kRestores, [&](int32_t slot) {
          if (slot * (kSetups - 1) % kRestores == 0) {
            SpanLog untraced(false);
            SGL_ASSIGN_OR_RETURN(std::unique_ptr<Simulation> extra,
                                 SetUp(config_, pass, &untraced, ops));
          }
          const int64_t t0 = NowNs();
          Status restore_st;
          {
            Scope restore_span(spans, "storage.restore");
            restore_st = restored->RestoreFrom(dir);
          }
          const int64_t t1 = NowNs();
          ops->Note("restore", restore_st.ok());
          SGL_RETURN_NOT_OK(restore_st);
          pass->recover_s.push_back(Seconds(t1 - t0));
          ops->Check(restored->table().Equals(sim_->table()) &&
                         restored->tick_count() == sim_->tick_count(),
                     "restored world differs from the live world");
          return Status::OK();
        }));
    ops->Check(ref->table().Equals(sim_->table()),
               "final table differs from the plain reference run");
    fs::remove_all(dir);
    return Status::OK();
  }

  std::vector<Simulation*> sims() { return {sim_.get()}; }
  void Release() { sim_.reset(); }

 private:
  // World generation, Build, and the warm-up ticks, recorded as one
  // setup_s sample.
  Result<std::unique_ptr<Simulation>> SetUp(const SimulationConfig& config,
                                            Pass* pass, SpanLog* spans,
                                            Ops* ops) {
    SGL_ASSIGN_OR_RETURN(const ScenarioDef* def,
                         ScenarioRegistry::Global().Get("battle"));
    Scope setup_span(spans, "bench.setup");
    double world_s = 0.0;
    SGL_ASSIGN_OR_RETURN(EnvironmentTable table,
                         GenerateWorld(*def, params_, spans, &world_s));
    int64_t start = NowNs();
    std::unique_ptr<Simulation> sim;
    {
      Scope span(spans, "engine.build");
      SimulationBuilder builder;
      Stage(*def, params_, config, std::move(table), &builder);
      SGL_ASSIGN_OR_RETURN(sim, builder.Build());
    }
    const double build_s = Seconds(NowNs() - start);
    if (pass->setup_s.empty()) pass->rss_after_build_mb = CurrentRssMb();
    start = NowNs();
    {
      Scope span(spans, "engine.warmup");
      for (int32_t t = 0; t < kWarmupTicks; ++t) {
        SGL_RETURN_NOT_OK(TimedTick(sim.get(), spans, ops));
      }
    }
    pass->AddSetup(world_s, build_s, Seconds(NowNs() - start));
    return sim;
  }

  const Options& opt_;
  ScenarioParams params_;
  SimulationConfig config_;
  std::unique_ptr<Simulation> sim_;
};

// -------------------------------------------------------- serve-durable

// One SessionManager with kSessions epidemic sessions, each on its own
// storage directory, removed with the fleet.
struct Fleet {
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    manager.reset();  // close the sessions before their files go
    std::error_code ec;
    for (const std::string& dir : dirs) fs::remove_all(dir, ec);
  }

  Simulation* session(int32_t s) { return manager->session(ids[s]); }

  std::unique_ptr<serve::SessionManager> manager;
  std::vector<serve::SessionId> ids;
  std::vector<std::string> dirs;
  std::vector<int64_t> checkpoint_tick = std::vector<int64_t>(kSessions, 0);
  int64_t rounds = 0;
};

class ServeBench {
 public:
  explicit ServeBench(const Options& opt) : opt_(opt), rng_(opt.seed) {
    for (int32_t s = 0; s < kSessions; ++s) {
      ScenarioParams params;
      params.units = kUnits;
      params.seed = opt.seed * kSessions + static_cast<uint64_t>(s);
      params_.push_back(params);
    }
  }

  Result<Pass> Run(const std::string& trace_prefix, SpanLog* spans,
                   Ops* ops) {
    Pass pass;
    rng_.seed(opt_.seed);  // every pass injects the same actions
    SGL_ASSIGN_OR_RETURN(live_, SetUp("live", trace_prefix, &pass, spans, ops));

    const int64_t rounds = TimedTicks(kServeRoundsPerSecond, opt_);
    pass.before = SessionValues();
    const int64_t loop_start = NowNs();
    {
      Scope timed(spans, "bench.timed");
      for (int64_t k = 0; k < rounds; ++k) {
        for (int32_t s = 0; s < kSessions; ++s) {
          pass.unit_ticks += live_->session(s)->table().NumRows();
        }
        SGL_RETURN_NOT_OK(Round(live_.get(), /*nudges=*/true, &pass, spans,
                                ops));
        pass.ticks += kSessions;
      }
    }
    pass.timed_s = Seconds(NowNs() - loop_start);
    pass.peak_rss_mb = PeakRssMb();
    pass.after = SessionValues();
    pass.rejected = JsonField(live_->manager->MetricsJson(), "serve.rejected");
    return pass;
  }

  // Output checks after the final pass. kWalRounds more rounds (untimed, no
  // checkpoint) build up WAL; then each session's plain reference run,
  // fed the session's inlet log, must end bit-identical to it. Spread over
  // the reference runs: the remaining set-up samples, and kServeRestores
  // byte-copies of a session's world directory, each RestoreFrom'd into a
  // fresh simulation that must equal the live session. Last, the scenario
  // invariants.
  Status Check(Pass* pass, SpanLog* spans, Ops* ops) {
    {
      Scope span(spans, "bench.wal_rounds");
      for (int64_t r = 0; r < kWalRounds; ++r) {
        SGL_RETURN_NOT_OK(Round(live_.get(), /*nudges=*/true, nullptr, spans,
                                ops));
      }
    }
    int32_t setups_left = kServeSetups - 1;
    for (int32_t s = 0; s < kSessions; ++s) {
      const Simulation* live = live_->session(s);
      Scope span(spans, "check.reference");
      SGL_ASSIGN_OR_RETURN(std::unique_ptr<Simulation> ref,
                           ScenarioRegistry::Global().BuildSimulation(
                               "epidemic", params_[s], PlainConfig()));
      SGL_RETURN_NOT_OK(ref->inlet()->Replay(live->inlet().Log()));
      SGL_RETURN_NOT_OK(Interleave(
          ref.get(), live->tick_count(), kServeRestores / kSessions,
          [&](int32_t slot) -> Status {
            if (slot == 0 && setups_left > 0) {
              --setups_left;
              SpanLog untraced(false);
              SGL_ASSIGN_OR_RETURN(std::unique_ptr<Fleet> extra,
                                   SetUp("extra", "", pass, &untraced, ops));
            }
            return Restore(s, pass, spans, ops);
          }));
      ops->Check(ref->table().Equals(live->table()),
                 "session " + std::to_string(s) +
                     " differs from the plain reference run");
    }
    for (int32_t s = 0; s < kSessions; ++s) {
      Scope span(spans, "check.invariants");
      const Status st = ScenarioRegistry::Global().CheckInvariants(
          "epidemic", params_[s], *live_->session(s));
      ops->Check(st.ok(), "invariants: " + st.ToString());
    }
    return Status::OK();
  }

  std::vector<Simulation*> sims() {
    std::vector<Simulation*> out;
    for (int32_t s = 0; s < kSessions; ++s) out.push_back(live_->session(s));
    return out;
  }

  void Release() { live_.reset(); }

 private:
  // A fresh manager whose sessions are opened over new storage
  // directories under `name`, plus the warm-up rounds, recorded as one
  // setup_s sample. `trace_prefix` non-empty turns each session's engine
  // tracer on.
  Result<std::unique_ptr<Fleet>> SetUp(const std::string& name,
                                       const std::string& trace_prefix,
                                       Pass* pass, SpanLog* spans, Ops* ops) {
    SGL_ASSIGN_OR_RETURN(const ScenarioDef* def,
                         ScenarioRegistry::Global().Get("epidemic"));
    Scope setup_span(spans, "bench.setup");
    auto fleet = std::make_unique<Fleet>();
    serve::SessionManagerOptions options;
    options.threads = kServeThreads;
    options.max_sessions = kSessions;
    options.tick_budget = 1;
    SGL_ASSIGN_OR_RETURN(fleet->manager,
                         serve::SessionManager::Create(options));
    double world_s = 0.0;
    double open_s = 0.0;
    for (int32_t s = 0; s < kSessions; ++s) {
      const std::string dir =
          opt_.out + "/worlds/" + name + "-s" + std::to_string(s);
      fs::remove_all(dir);
      fleet->dirs.push_back(dir);
      double session_world_s = 0.0;
      SGL_ASSIGN_OR_RETURN(
          EnvironmentTable table,
          GenerateWorld(*def, params_[s], spans, &session_world_s));
      world_s += session_world_s;
      SimulationConfig config;
      config.storage.path = dir;
      if (!trace_prefix.empty()) {
        config.artifacts.trace_path =
            trace_prefix + "-s" + std::to_string(s) + ".json";
      }
      const int64_t start = NowNs();
      {
        Scope span(spans, "serve.open");
        SimulationBuilder builder;
        Stage(*def, params_[s], config, std::move(table), &builder);
        SGL_ASSIGN_OR_RETURN(serve::SessionId id,
                             fleet->manager->Open(builder));
        fleet->ids.push_back(id);
      }
      open_s += Seconds(NowNs() - start);
    }
    if (pass->setup_s.empty()) pass->rss_after_build_mb = CurrentRssMb();
    const int64_t start = NowNs();
    {
      Scope span(spans, "engine.warmup");
      for (int32_t r = 0; r < kServeWarmupRounds; ++r) {
        SGL_RETURN_NOT_OK(
            Round(fleet.get(), /*nudges=*/false, nullptr, spans, ops));
      }
    }
    pass->AddSetup(world_s, open_s, Seconds(NowNs() - start));
    return fleet;
  }

  // Byte-copy session `s`'s world directory, build a fresh simulation over
  // the copy, and RestoreFrom it; it must equal the live session.
  Status Restore(int32_t s, Pass* pass, SpanLog* spans, Ops* ops) {
    const Simulation* live = live_->session(s);
    const std::string copy = opt_.out + "/worlds/restore";
    {
      Scope span(spans, "bench.copy");
      fs::remove_all(copy);
      std::error_code ec;
      fs::copy(live_->dirs[s], copy, fs::copy_options::recursive, ec);
      if (ec) {
        return Status::Internal("copying ", live_->dirs[s], ": ", ec.message());
      }
    }
    SimulationConfig config;
    config.storage.path = copy;
    int64_t start = NowNs();
    std::unique_ptr<Simulation> restored;
    {
      Scope span(spans, "storage.restore_build");
      SGL_ASSIGN_OR_RETURN(restored, ScenarioRegistry::Global().BuildSimulation(
                                         "epidemic", params_[s], config));
    }
    pass->restore_build_s.push_back(Seconds(NowNs() - start));
    start = NowNs();
    Status st;
    {
      Scope span(spans, "storage.restore");
      st = restored->RestoreFrom(copy);
    }
    const int64_t end = NowNs();
    ops->Note("restore", st.ok());
    SGL_RETURN_NOT_OK(st);
    pass->recover_s.push_back(Seconds(end - start));
    pass->replay_ticks.push_back(
        static_cast<double>(live->tick_count() - live_->checkpoint_tick[s]));
    ops->Check(restored->table().Equals(live->table()) &&
                   restored->tick_count() == live->tick_count(),
               "restored copy of session " + std::to_string(s) +
                   " differs from the live session");
    restored.reset();
    fs::remove_all(copy);
    return Status::OK();
  }

  Counters SessionValues() {
    Counters sum;
    for (Simulation* sim : sims()) AddInto(&sum, Values(*sim));
    return sum;
  }

  // One scheduling round: optionally inject kNudgesPerSession seeded
  // position nudges into every session, advance every session one tick,
  // and checkpoint every kCheckpointEvery rounds. With `pass`, record the
  // round latency (checkpoints included) and every action's latency, from
  // Inject returning to the end of the round that applied it.
  Status Round(Fleet* fleet, bool nudges, Pass* pass, SpanLog* spans,
               Ops* ops) {
    std::vector<int64_t> injected_ns;
    std::vector<int64_t> expect(kSessions, 0);
    std::vector<int64_t> applied_before(kSessions, 0);
    std::vector<int64_t> dropped_before(kSessions, 0);
    const int64_t start = NowNs();
    for (int32_t s = 0; s < kSessions && nudges; ++s) {
      const Simulation* sim = fleet->session(s);
      applied_before[s] = sim->inlet().applied();
      dropped_before[s] = sim->inlet().dropped();
      const EnvironmentTable& table = sim->table();
      const int64_t side = params_[s].GridSide();
      for (int32_t n = 0; n < kNudgesPerSession && table.NumRows() > 0; ++n) {
        serve::InjectedAction action;
        action.unit_key =
            table.KeyAt(static_cast<RowId>(rng_() % table.NumRows()));
        action.attr = "posx";
        action.op = serve::InjectedAction::Op::kSet;
        action.value = static_cast<double>(rng_() % side);
        const int64_t t0 = NowNs();
        Result<int64_t> seq = [&] {
          Scope span(spans, "serve.inject");
          return fleet->manager->Inject(fleet->ids[s], std::move(action));
        }();
        const int64_t t1 = NowNs();
        if (!seq.ok()) {  // rejected: a failed inject
          ops->Note("inject", false);
          continue;
        }
        ++expect[s];
        if (pass != nullptr) {
          pass->inject_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          injected_ns.push_back(t1);
        }
      }
    }
    for (serve::SessionId id : fleet->ids) {
      SGL_RETURN_NOT_OK(fleet->manager->ScheduleTicks(id, 1));
    }
    Result<int64_t> ticked = [&] {
      Scope span(spans, "serve.round");
      return fleet->manager->RunRound();
    }();
    const int64_t round_end = NowNs();
    for (int32_t s = 0; s < kSessions; ++s) {
      ops->Note("tick", ticked.ok() && *ticked == kSessions);
    }
    SGL_RETURN_NOT_OK(ticked.status());
    for (int32_t s = 0; s < kSessions && nudges; ++s) {
      // Every queued nudge must have been drained by this round's tick. An
      // applied one is a succeeded inject, a dropped one (stale key, which
      // an epidemic never produces) a failed one.
      const Simulation* sim = fleet->session(s);
      const int64_t applied = sim->inlet().applied() - applied_before[s];
      const int64_t dropped = sim->inlet().dropped() - dropped_before[s];
      if (applied + dropped != expect[s]) {
        return Status::Internal("session ", s, " drained ", applied + dropped,
                                " of ", expect[s],
                                " injected actions in one round");
      }
      ops->Note("inject", true, applied);
      ops->Note("inject", false, dropped);
    }
    if (pass != nullptr) {
      for (int64_t t : injected_ns) {
        pass->action_ms.push_back(Millis(round_end - t));
      }
    }
    ++fleet->rounds;
    if (pass != nullptr && fleet->rounds % kCheckpointEvery == 0) {
      for (int32_t s = 0; s < kSessions; ++s) {
        Simulation* sim = fleet->session(s);
        const int64_t t0 = NowNs();
        Status st;
        {
          Scope span(spans, "storage.checkpoint");
          st = sim->Checkpoint(fleet->dirs[s]);
        }
        ops->Note("checkpoint", st.ok());
        SGL_RETURN_NOT_OK(st);
        pass->checkpoint_ms.push_back(Millis(NowNs() - t0));
        fleet->checkpoint_tick[s] = sim->tick_count();
      }
    }
    if (pass != nullptr) pass->tick_ms.push_back(Millis(NowNs() - start));
    return Status::OK();
  }

  const Options& opt_;
  std::mt19937_64 rng_;
  std::vector<ScenarioParams> params_;
  std::unique_ptr<Fleet> live_;
};
// -------------------------------------------------------------- analysis

// The layer a span's self time belongs to.
std::string LayerOf(const Span& s) {
  const std::string& n = s.name;
  if (n == "index-build" || n == "deferred-index") return "index";
  if (n == "decision-action") return "decision";
  if (n == "tick" || n == "apply" || n == "movement" || n == "mechanics" ||
      n.rfind("engine.", 0) == 0) {
    return "engine";
  }
  if (n == "inlet.push" || n.rfind("serve.", 0) == 0) return "serve";
  for (const char* prefix : {"scenario.", "storage.", "check."}) {
    if (n.rfind(prefix, 0) == 0) return n.substr(0, n.find('.'));
  }
  return "bench";
}

const char* const kLayers[] = {"scenario", "engine", "index", "decision",
                               "serve",    "storage", "check", "bench"};
const char* const kPhases[] = {"index-build", "decision-action",
                               "deferred-index", "apply", "movement",
                               "mechanics"};

bool IsPhase(const std::string& name) {
  for (const char* p : kPhases) {
    if (name == p) return true;
  }
  return false;
}

struct Analysis {
  std::map<std::string, double> self_ms_timed;  // by layer, timed loop only
  std::string table;                            // layers.txt
  double phase_span_ms = 0.0;     // timed loop, phase spans on track 0
  double decision_span_ms = 0.0;  // timed loop, decision-action spans
  double chunk_ms = 0.0;          // timed loop, worker chunk spans
};

// Nest the track-0 spans by containment, then derive each span's self time
// (its duration minus the part its children cover) and sum it by name and
// by layer. Worker spans run beside track 0, not inside its self time;
// they only feed the parallel-efficiency ratio.
Analysis Analyze(std::vector<Span>* spans) {
  std::vector<int32_t> order;
  for (int32_t i = 0; i < static_cast<int32_t>(spans->size()); ++i) {
    if ((*spans)[i].tid == 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const Span& x = (*spans)[a];
    const Span& y = (*spans)[b];
    return x.start_ns != y.start_ns ? x.start_ns < y.start_ns
                                    : x.end_ns > y.end_ns;
  });
  std::vector<double> child_ns(spans->size(), 0.0);
  std::vector<bool> timed(spans->size(), false);
  // Harness and engine clocks are aligned to within tens of nanoseconds, so
  // a harness span and the engine span it wraps may nest either way round.
  constexpr int64_t kSlackNs = 1000;
  std::vector<int32_t> stack;
  for (int32_t i : order) {
    Span& s = (*spans)[i];
    while (!stack.empty() &&
           ((*spans)[stack.back()].end_ns <= s.start_ns ||
            (*spans)[stack.back()].end_ns + kSlackNs < s.end_ns)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      s.parent = stack.back();
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      timed[i] = timed[s.parent];
    }
    if (s.name == "bench.timed") timed[i] = true;
    stack.push_back(i);
  }

  Analysis a;
  struct Row {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, double> self_ms_all;
  int64_t timed_start = 0;
  int64_t timed_end = 0;
  for (int32_t i : order) {
    const Span& s = (*spans)[i];
    if (s.name == "bench.timed") {
      timed_start = s.start_ns;
      timed_end = s.end_ns;
    }
    const double total = Millis(s.end_ns - s.start_ns);
    const double self = total - child_ns[i] * 1e-6;
    Row& row = by_name[s.name];
    ++row.count;
    row.total_ms += total;
    row.self_ms += self;
    self_ms_all[LayerOf(s)] += self;
    if (timed[i]) {
      a.self_ms_timed[LayerOf(s)] += self;
      if (IsPhase(s.name)) a.phase_span_ms += total;
      if (s.name == "decision-action") a.decision_span_ms += total;
    }
  }
  for (const Span& s : *spans) {
    if (s.tid != 0 && s.start_ns >= timed_start && s.end_ns <= timed_end) {
      a.chunk_ms += Millis(s.end_ns - s.start_ns);
    }
  }

  char line[160];
  std::string& t = a.table;
  t += "span                      layer        count     total_ms"
       "      self_ms\n";
  for (const auto& [name, row] : by_name) {
    Span probe;
    probe.name = name;
    std::snprintf(line, sizeof(line), "%-25s %-9s %8lld %12.3f %12.3f\n",
                  name.c_str(), LayerOf(probe).c_str(),
                  static_cast<long long>(row.count), row.total_ms,
                  row.self_ms);
    t += line;
  }
  t += "\nlayer       self_ms(run)  self_ms(timed loop)\n";
  for (const char* layer : kLayers) {
    std::snprintf(line, sizeof(line), "%-10s %13.3f %20.3f\n", layer,
                  self_ms_all[layer], a.self_ms_timed[layer]);
    t += line;
  }
  return a;
}

// Chrome trace-event JSON (loads in Perfetto); args carry the span id and
// the parent Analyze assigned.
Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write ", path);
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << buf;
  }
  out << "]}\n";
  return out.good() ? Status::OK() : Status::Internal("writing ", path);
}

// Phase spans in the timed loop over Simulation::stats() phase time for the
// same ticks: the two time the same calls, so this should read 1.
double PhaseSpanRatio(const Pass& p, const Analysis& a) {
  const double stats_ms = (SumWhere(p.after, "phase.", ".ns") -
                           SumWhere(p.before, "phase.", ".ns")) *
                          1e-6;
  return Ratio(a.phase_span_ms, stats_ms);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Pass& p) {
  return {
      {"unit_ticks_per_s", p.unit_ticks_per_s(), "1/s"},
      {"tick_ms_p50", Percentile(p.tick_ms, 0.50), "ms"},
      {"tick_ms_p95", TailPercentile(p.tick_ms, 0.95), "ms"},
      {"setup_s", Median(p.setup_s), "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MiB"},
      {"recover_s", Median(p.recover_s), "s"},
      {"action_ms_p50", Percentile(p.action_ms, 0.50), "ms"},
      {"action_ms_p95", TailPercentile(p.action_ms, 0.95), "ms"},
  };
}

std::vector<Metric> PerLayer(const Pass& p, double untraced_ups,
                             const Analysis& a, const Ops& ops) {
  Counters d;  // counter deltas over the timed loop
  for (const auto& [name, value] : p.after) {
    d[name] = value - Get(p.before, name);
  }
  const double ticks = static_cast<double>(p.ticks);
  auto per_tick = [&](double v) { return Ratio(v, ticks); };
  auto phase_ms = [&](const std::string& phase) {
    return per_tick(Millis(Get(d, "phase." + phase + ".ns")));
  };

  const double probes = SumWhere(d, "phase.", ".index_probes");
  const double calls = SumWhere(d, "sharing.group", ".calls");
  const double hits = SumWhere(d, "sharing.group", ".hits");
  const double pool_hits = static_cast<double>(Get(d, "storage.pool.hits"));
  const double pool_misses = static_cast<double>(Get(d, "storage.pool.misses"));
  const double workers =
      static_cast<double>(Get(p.after, "phase.decision-action.workers"));

  std::vector<Metric> m = {
      {"scenario.world_s", p.world_s, "s"},
      {"engine.build_s", p.build_s, "s"},
      {"engine.warmup_s", p.warmup_s, "s"},
      {"mem.rss_after_build_mb", p.rss_after_build_mb, "MiB"},
  };
  for (const char* phase : kPhases) {
    m.push_back({std::string("phase.") + phase + ".ms_per_tick",
                 phase_ms(phase), "ms"});
  }
  const double index_build_ms = Millis(Get(d, "phase.index-build.ns"));
  m.insert(
      m.end(),
      {
          {"phase.rows_scanned_per_tick",
           per_tick(SumWhere(d, "phase.", ".rows_scanned")),
           "count"},
          {"opt.index_probes_per_tick", per_tick(probes), "count"},
          {"opt.family_calls_per_tick",
           per_tick(SumWhere(d, ".agg.family", ".calls")),
           "count"},
          {"opt.index_build_ms_per_kprobe",
           Ratio(index_build_ms, probes / 1000.0), "ms"},
          {"sharing.calls_per_tick", per_tick(calls), "count"},
          {"sharing.hit_ratio", Ratio(hits, calls), "ratio"},
          {"sharing.demotions",
           static_cast<double>(Get(p.after, "sharing.demotions")), "count"},
          {"vm.batches_per_tick",
           per_tick(SumWhere(d, ".vm.", ".batches")),
           "count"},
          {"vm.agg_scan_probes_per_tick",
           per_tick(SumWhere(d, ".vm.", ".agg_scan_probes")),
           "count"},
          {"vm.interp_fallbacks",
           SumWhere(p.after, ".vm.", ".interp_fallbacks"),
           "count"},
          {"exec.decision_max_worker_ms_per_tick",
           per_tick(Millis(Get(d, "phase.decision-action.max_worker_ns"))),
           "ms"},
          // Worker busy time over workers x phase wall time; a phase run on
          // one thread is fully efficient by definition.
          {"exec.parallel_efficiency",
           workers > 1 ? Ratio(a.chunk_ms, workers * a.decision_span_ms) : 1.0,
           "ratio"},
          {"serve.inject_us_p50", Percentile(p.inject_us, 0.50), "us"},
          {"serve.inject_us_p99", Percentile(p.inject_us, 0.99), "us"},
          {"serve.rejected", static_cast<double>(p.rejected), "count"},
          {"inlet.applied", static_cast<double>(Get(d, "inlet.applied")),
           "count"},
          {"inlet.dropped", static_cast<double>(Get(d, "inlet.dropped")),
           "count"},
          {"storage.checkpoint_ms_p50", Percentile(p.checkpoint_ms, 0.50),
           "ms"},
          {"storage.checkpoint_ms_max", Percentile(p.checkpoint_ms, 1.0), "ms"},
          {"storage.wal_mb_per_tick",
           per_tick(static_cast<double>(Get(d, "storage.wal.bytes")) /
                    (1024.0 * 1024.0)),
           "MiB"},
          {"storage.fsyncs", static_cast<double>(Get(d, "storage.fsyncs")),
           "count"},
          {"storage.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
           "ratio"},
          {"storage.pool_evictions",
           static_cast<double>(Get(d, "storage.pool.evictions")), "count"},
          {"storage.recover_replay_ticks", Median(p.replay_ticks), "count"},
          {"storage.restore_build_s", Median(p.restore_build_s), "s"},
          {"obs.trace_overhead", Ratio(p.unit_ticks_per_s(), untraced_ups),
           "ratio"},
          {"obs.phase_span_ratio", PhaseSpanRatio(p, a), "ratio"},
      });
  for (const char* layer :
       {"engine", "index", "decision", "serve", "storage", "bench"}) {
    auto it = a.self_ms_timed.find(layer);
    m.push_back({std::string("self.") + layer + ".ms_per_tick",
                 per_tick(it == a.self_ms_timed.end() ? 0.0 : it->second),
                 "ms"});
  }
  for (const auto& [kind, count] : ops.kinds()) {
    m.push_back({"ops." + kind + ".attempted",
                 static_cast<double>(count.attempted), "count"});
    m.push_back({"ops." + kind + ".failed", static_cast<double>(count.failed),
                 "count"});
  }
  m.push_back({"bench.tick_samples", static_cast<double>(p.tick_ms.size()),
               "count"});
  m.push_back({"bench.action_samples", static_cast<double>(p.action_ms.size()),
               "count"});
  return m;
}

void PrintResult(const std::vector<Metric>& metrics, const Ops& ops,
                 const Pass& pass) {
  std::printf("%-40s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\ntimed samples: %zu ticks, %zu actions, %zu injects\n",
              pass.tick_ms.size(), pass.action_ms.size(),
              pass.inject_us.size());
  std::printf("operations       attempted     failed\n");
  for (const auto& [kind, count] : ops.kinds()) {
    std::printf("%-12s %13lld %10lld\n", kind.c_str(),
                static_cast<long long>(count.attempted),
                static_cast<long long>(count.failed));
  }
  const bool correct = ops.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(ops.attempted()),
              static_cast<long long>(ops.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------------ main

// Runs `bench` once untraced or, with --trace 1, once untraced and once
// traced; then checks the outputs of the final pass and prints the result.
template <typename Bench>
Status RunWorkload(Bench* bench, const Options& opt) {
  Ops ops;
  SpanLog untraced(false);
  SGL_ASSIGN_OR_RETURN(Pass pass, bench->Run(std::string(), &untraced, &ops));
  if (!opt.trace) {
    SGL_RETURN_NOT_OK(bench->Check(&pass, &untraced, &ops));
    bench->Release();
    PrintResult(EndToEnd(pass), ops, pass);
    return Status::OK();
  }

  // Traced pass: the same work with every span recorded, the engine's own
  // tracer on, and the final worlds compared with the untraced pass's.
  std::vector<EnvironmentTable> untraced_tables;
  for (Simulation* sim : bench->sims()) {
    untraced_tables.push_back(sim->table().Clone());
  }
  const double untraced_ups = pass.unit_ticks_per_s();
  const double untraced_rss = pass.rss_after_build_mb;
  bench->Release();
  SpanLog spans(true);
  SGL_ASSIGN_OR_RETURN(
      pass, bench->Run(opt.out + "/engine-trace", &spans, &ops));
  pass.rss_after_build_mb = untraced_rss;
  std::vector<Simulation*> sims = bench->sims();
  for (size_t i = 0; i < sims.size(); ++i) {
    ops.Check(sims[i]->table().Equals(untraced_tables[i]),
              "traced run diverged from the untraced run");
  }
  {
    Scope span(&spans, "bench.checks");
    SGL_RETURN_NOT_OK(bench->Check(&pass, &spans, &ops));
  }
  for (Simulation* sim : sims) {
    if (sim->tracer() != nullptr) spans.Import(*sim->tracer());
  }
  bench->Release();

  Analysis analysis = Analyze(&spans.spans());
  const double ratio = PhaseSpanRatio(pass, analysis);
  ops.Check(ratio > 0.95 && ratio < 1.05,
            "phase spans and stats() disagree: ratio " +
                std::to_string(ratio));
  SGL_RETURN_NOT_OK(WriteSpans(spans.spans(), opt.out + "/spans.json"));
  std::ofstream(opt.out + "/layers.txt") << analysis.table;
  std::printf("%s\n", analysis.table.c_str());
  PrintResult(PerLayer(pass, untraced_ups, analysis, ops), ops, pass);
  return Status::OK();
}

int Usage() {
  std::fprintf(stderr,
               "usage: sgl_bench --workload battle-10k|serve-durable "
               "--seed N --seconds S --trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace sgl

int main(int argc, char** argv) {
  using namespace sgl::bench;
#if defined(__GLIBC__)
  // Pin glibc's mmap and trim thresholds, which otherwise move with the
  // sizes of the blocks freed so far. Left to move, they made the median
  // RestoreFrom of one seed read 89 ms in one run and 109 ms in the next.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtoll(value, nullptr, 10);
    } else if (flag == "--trace") {
      opt.trace = std::string(value) == "1";
    } else if (flag == "--out") {
      opt.out = value;
    } else {
      return Usage();
    }
  }
  if (opt.out.empty() || opt.seconds < 1) return Usage();
  std::error_code ec;
  fs::create_directories(opt.out, ec);

  sgl::Status st =
      sgl::Status::Invalid("unknown workload '", opt.workload, "'");
  if (opt.workload == "battle-10k") {
    BattleBench bench(opt);
    st = RunWorkload(&bench, opt);
  } else if (opt.workload == "serve-durable") {
    ServeBench bench(opt);
    st = RunWorkload(&bench, opt);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "sgl_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
