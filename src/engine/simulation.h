// sgl::Simulation — the public facade of the simulation engine.
//
// A Simulation owns the environment table E, one or more compiled SGL
// scripts (a multi-script session: one script per unit class, dispatched
// by a schema attribute, as the paper's epic-battle scenario implies), the
// registered game mechanics, and an ordered pipeline of TickPhase objects
// that reproduces — and generalizes — the fixed phase sequence of
// Section 6. Simulations are assembled with the fluent SimulationBuilder:
//
//   SGL_ASSIGN_OR_RETURN(auto sim, SimulationBuilder()
//       .SetTable(std::move(table))
//       .SetConfig(config)
//       .DispatchBy("species")
//       .AddScript("wolves", std::move(wolf_script), /*dispatch_value=*/0)
//       .AddScript("sheep", std::move(sheep_script), /*dispatch_value=*/1)
//       .SetMechanics(std::make_unique<Pasture>())
//       .Build());
//   SGL_RETURN_NOT_OK(sim->Run(100));
//
// The evaluator is pluggable per config (Section 6: "two pluggable
// versions of our aggregate query evaluator"): kNaive scans E per
// aggregate and per action; kIndexed probes the Section 5.3/5.4 index
// structures; kAdaptive re-plans per index family each tick with the
// cost model of src/opt/cost.h. All modes produce bit-identical
// simulations.
//
// Checkpoint(dir)/RestoreFrom(dir) are the one durability API: they
// persist and rebuild the world (table + tick counter + inlet log) in
// the one on-disk format, the world store's (src/storage/). Mechanics-
// internal state (e.g. a deaths counter) is not captured; because all
// per-tick randomness derives from (seed, tick), a restored world
// re-runs deterministically.
#ifndef SGL_ENGINE_SIMULATION_H_
#define SGL_ENGINE_SIMULATION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/phase.h"
#include "env/effect_buffer.h"
#include "env/table.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/action_sink.h"
#include "opt/indexed_provider.h"
#include "opt/sharing.h"
#include "serve/action_inlet.h"
#include "sgl/analyzer.h"
#include "sgl/interpreter.h"
#include "storage/config.h"
#include "util/rng.h"
#include "util/status.h"
#include "vm/bytecode.h"

namespace sgl {

namespace storage {
class WorldStore;
}  // namespace storage

/// Which aggregate/action evaluator the simulation runs. All modes are
/// bit-exact with each other (the engine and scenario suites enforce it):
///   kNaive    reference scans per aggregate and action;
///   kIndexed  Section 5.3/5.4 index structures, rebuilt every tick;
///   kAdaptive per index family and per tick, a calibrated cost model
///             (src/opt/cost.h) picks scan fallback or full rebuild.
enum class EvaluatorMode { kNaive, kIndexed, kAdaptive };

const char* EvaluatorModeName(EvaluatorMode mode);

/// Parse "naive" / "indexed" / "adaptive" (benchmark and tool CLIs).
Result<EvaluatorMode> ParseEvaluatorMode(const std::string& name);

/// Game-specific rules the engine delegates to: how combined effects
/// change unit state (Example 4.1) and what happens at end of tick
/// (death, resurrection, spawning).
class GameMechanics {
 public:
  virtual ~GameMechanics() = default;

  /// Called after ⊕: the table's effect columns hold the combined effects
  /// of the tick; update the const state columns accordingly. `buffer`
  /// additionally answers HasSet() for set-priority effects.
  virtual Status ApplyEffects(EnvironmentTable* table,
                              const EffectBuffer& buffer,
                              const TickRandom& rnd) = 0;

  /// Called after the movement phase; remove/resurrect/spawn units here.
  virtual Status EndTick(EnvironmentTable* table, const TickRandom& rnd) = 0;
};

/// Function-style mechanics registration (alternative to GameMechanics).
using ApplyEffectsHook = std::function<Status(
    EnvironmentTable* table, const EffectBuffer& buffer,
    const TickRandom& rnd)>;
using EndTickHook =
    std::function<Status(EnvironmentTable* table, const TickRandom& rnd)>;

/// Observability artifact outputs — every path the engine writes
/// diagnostics to, in one block (was: loose trace_path / metrics_path /
/// flight_recorder_* fields directly on SimulationConfig).
struct ArtifactConfig {
  /// When non-empty, record span/instant events (tick → phase →
  /// per-chunk worker spans, plus adaptive-choice / memo-demotion /
  /// VM-bail / error instants) and write them as Chrome trace-event
  /// JSON — Perfetto-loadable — to this path when the simulation is
  /// destroyed (or earlier via WriteTrace). Empty disables tracing
  /// entirely: every emit site reduces to one branch on a null pointer.
  std::string trace_path;

  /// When non-empty, append one JSON-lines metrics snapshot
  /// ({"tick":N,"metrics":{...}}) to this path after every tick.
  std::string metrics_path;

  /// Flight recorder: keep summaries (phase timings, row counts, metric
  /// deltas) of the last N ticks and dump them as JSON to
  /// `flight_recorder_path` when Tick() fails or a scenario invariant
  /// trips. 0 disables.
  int32_t flight_recorder_ticks = 0;
  std::string flight_recorder_path = "flight_record.json";

  /// Validation with SimulationConfig's message vocabulary.
  Status Validate() const;
};

struct SimulationConfig {
  /// Evaluator mode (the paper's pluggable evaluators plus kAdaptive).
  EvaluatorMode eval_mode = EvaluatorMode::kIndexed;
  uint64_t seed = 1;

  /// Worker threads for the parallel tick phases (src/exec/). 1 runs the
  /// classic single-threaded pipeline; 0 auto-detects hardware
  /// concurrency. Any value produces bit-identical simulations — the
  /// determinism contract the parallel test suite enforces.
  int32_t threads = 1;

  /// Cross-unit aggregate sharing (src/opt/sharing.h): memoize
  /// unit-invariant and partition-keyed aggregate results per tick and
  /// broadcast them across probing units and scripts. Works under every
  /// evaluator mode (it layers above the physical providers — including
  /// the naive reference scans) and is bit-exact on or off for any
  /// thread count; off reproduces the probe-per-unit behavior exactly.
  bool sharing = true;

  /// Compiled evaluation (src/vm/): lower each script's decision logic to
  /// register bytecode at Build() time and run the decision phase through
  /// the batch VM instead of the AST interpreter. Bit-exact with the
  /// interpreter under every evaluator mode, thread count, and sharing
  /// setting; scripts the conservative compiler declines fall back to the
  /// interpreter automatically (Explain() shows the reason per script).
  bool compiled = true;

  /// Movement phase configuration. Attribute names for the per-tick
  /// movement intent; empty names disable the phase. Positions are kept
  /// on the integer grid [0, grid_width) x [0, grid_height).
  std::string move_x_attr = "movex";
  std::string move_y_attr = "movey";
  int64_t grid_width = 256;
  int64_t grid_height = 256;
  double step_per_tick = 3.0;  // the paper's _WALK_DIST_PER_TICK
  bool collisions = true;

  /// Observability artifact outputs (src/obs/): tracing, per-tick
  /// metrics lines, the flight recorder.
  ArtifactConfig artifacts;

  /// Disk-backed world (src/storage/): checkpointed pages of the
  /// environment table plus a write-ahead delta log, giving crash
  /// recovery, checkpoints that write only the pages touched since the
  /// last one, and time travel. The table stays wholly in memory.
  /// Disabled (empty path) by default — the in-memory engine
  /// then runs with zero storage overhead. Storage-backed runs are
  /// bit-exact with in-memory runs for every evaluator mode and thread
  /// count (tests/storage_test.cc enforces it).
  StorageConfig storage;

  /// Validate every field against the engine's limits, with one error
  /// vocabulary (every message is an InvalidArgument starting with
  /// "SimulationConfig:"). SimulationBuilder::Build and the serving
  /// layer's SessionManager both call this — a config rejected here is
  /// rejected identically at either entry point.
  Status Validate() const;
};

/// One registered script with its per-script evaluation machinery. With a
/// dispatch attribute configured, a unit whose attribute equals
/// `dispatch_value` runs this session's main; at most one session per
/// simulation may instead be the default (no dispatch value), catching
/// every unmatched unit.
struct ScriptSession {
  std::string name;
  Script script;
  bool has_dispatch_value = false;
  double dispatch_value = 0.0;
  std::unique_ptr<Interpreter> interp;
  /// Indexed/adaptive modes only (an AdaptiveAggregateProvider in the
  /// latter); null under the naive evaluator.
  std::unique_ptr<IndexedAggregateProvider> provider;
  std::unique_ptr<IndexedActionSink> sink;  // indexed/adaptive modes only
  /// With SimulationConfig::sharing: the memoization decorator installed
  /// between the interpreter and `provider` (or the naive fallback when
  /// `provider` is null). All sessions share the Simulation's context.
  std::unique_ptr<SharingAggregateProvider> sharing;
  /// With SimulationConfig::compiled: the script's decision bytecode, run
  /// by the batch VM (src/vm/). Null when compilation is off or declined;
  /// `compile_note` then carries the reason (surfaced by Explain()).
  std::unique_ptr<vm::CompiledProgram> compiled;
  std::string compile_note;
};

class SimulationBuilder;

class Simulation {
 public:
  ~Simulation();

  /// Advance the simulation one clock tick through the phase pipeline.
  Status Tick();

  /// Run `ticks` clock ticks.
  Status Run(int64_t ticks);

  /// Human-readable label (SimulationBuilder::SetName; the scenario layer
  /// stamps the scenario name here). Empty when never set.
  const std::string& name() const { return name_; }

  const EnvironmentTable& table() const { return table_; }
  EnvironmentTable* mutable_table() { return &table_; }
  int64_t tick_count() const { return tick_count_; }
  const SimulationConfig& config() const { return config_; }

  /// Per-phase statistics accumulated across ticks.
  const PhaseStatsRegistry& stats() const { return stats_; }
  PhaseStatsRegistry* mutable_stats() { return &stats_; }

  /// The cross-unit aggregate-sharing layer; null when
  /// SimulationConfig::sharing is off.
  const SharingContext* sharing() const { return sharing_.get(); }

  /// Sharing counters for benches/tests (0 with sharing off). Read them
  /// between ticks or after a run, not mid-phase.
  int64_t shared_hits() const;
  int64_t memo_entries() const;

  /// Resolved worker-thread count (config threads after auto-detection,
  /// or the shared executor's size when one was injected).
  int32_t threads() const { return threads_; }

  /// The simulation's action inlet: externally injected unit actions,
  /// drained at the start of every tick in sequence order (src/serve/).
  /// Push is thread-safe; everything else follows the engine's
  /// single-driver discipline. Never null.
  serve::ActionInlet* inlet() { return &inlet_; }
  const serve::ActionInlet& inlet() const { return inlet_; }

  /// The executor the parallel phases run on — the injected shared pool
  /// (SimulationBuilder::Executor) or the private pool built from
  /// config().threads. Null when threads() == 1 and no executor was
  /// injected (the classic sequential pipeline).
  const std::shared_ptr<exec::ThreadPool>& executor() const { return pool_; }

  /// The unified metrics registry every subsystem counter lives in
  /// (phase stats, probe tallies, sharing memo counters, adaptive
  /// decisions, VM execution counters). Read between ticks.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry* mutable_metrics() { return &metrics_; }

  /// One-line JSON snapshot of the registry. With `deterministic_only`,
  /// only metrics whose values are bit-identical across thread counts —
  /// the form the determinism tests compare.
  std::string MetricsJson(bool deterministic_only = false) const {
    return metrics_.ToJson(deterministic_only);
  }

  /// The tracer, or null when SimulationConfig::trace_path is empty.
  const obs::Tracer* tracer() const { return tracer_.get(); }

  /// Write the trace collected so far as Chrome trace-event JSON.
  /// Fails unless tracing is enabled. The destructor also writes to
  /// config().trace_path automatically.
  Status WriteTrace(const std::string& path) const;

  /// The flight recorder, or null when flight_recorder_ticks == 0.
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }

  /// Dump the flight recorder ring (scenario invariant checkers call this
  /// on failure; Tick() calls it on error automatically).
  Status DumpFlightRecorder(const std::string& path,
                            const std::string& reason) const;

  /// Pipeline order, by phase name.
  std::vector<std::string> PhaseNames() const;

  int32_t NumScripts() const { return static_cast<int32_t>(sessions_.size()); }
  const ScriptSession& session(int32_t i) const { return *sessions_[i]; }

  /// The session whose script row `row` runs this tick (dispatch-attribute
  /// lookup, falling back to the default session).
  Result<const ScriptSession*> SessionForRow(RowId row) const;

  /// EXPLAIN over every registered script: the logical plan (Figure 6
  /// translation + rewrites) and the physical strategies chosen by the
  /// indexed evaluator.
  std::string Explain() const;

  /// The physical plan description alone (the Engine-era EXPLAIN).
  std::string DescribePlan() const;

  // --- durability (the one checkpoint/restore API) -----------------------

  /// Persist the world into directory `dir` (created if needed) as a
  /// world-store image: checksummed pages plus a manifest published by
  /// atomic rename. With disk-backed storage on and `dir` ==
  /// config().storage.path, this is the live store's checkpoint (O(pages
  /// touched since the last one)) and truncates its WAL; any other
  /// directory gets a full image from a short-lived store opened with
  /// the default StorageConfig. Either way the applied inlet log is
  /// saved alongside (inlet.sgl, also by atomic rename), so a restored
  /// world replays injected actions too.
  Status Checkpoint(const std::string& dir);

  /// Rebuild the world from directory `dir` and continue from there.
  /// `tick` selects the state to materialize: -1 (default) the latest
  /// durable state, i.e. the checkpoint image plus a full WAL replay (a
  /// torn trailing tick from a crash is dropped); a specific tick
  /// re-materializes exactly that state (time travel over
  /// [checkpoint_tick, latest]; an image written to a directory other
  /// than the storage path covers only its own tick). Any directory but
  /// the storage path is read with the page size its manifest records.
  /// A directory with no world is NotFound and is left untouched; one
  /// holding only the retired snapshot.sgl format is refused. Restoring
  /// commits to the chosen timeline: with storage on, a fresh checkpoint
  /// is published at the restored tick.
  Status RestoreFrom(const std::string& dir, int64_t tick = -1);

  /// Write every enabled observability artifact into `dir` (created if
  /// needed): trace.json (when tracing is on), metrics.json (always),
  /// flight_record.json (when the recorder is on).
  Status DumpArtifacts(const std::string& dir);

  /// The disk-backed world store, or null when config().storage is
  /// disabled (src/storage/world_store.h).
  storage::WorldStore* store() { return store_.get(); }
  const storage::WorldStore* store() const { return store_.get(); }

  // --- accessors used by TickPhase implementations -----------------------
  std::vector<std::unique_ptr<ScriptSession>>& sessions() { return sessions_; }

  const std::vector<ApplyEffectsHook>& apply_hooks() const {
    return apply_hooks_;
  }
  const std::vector<EndTickHook>& end_tick_hooks() const {
    return end_tick_hooks_;
  }

 private:
  friend class SimulationBuilder;
  // Out of line: members hold unique_ptrs to types fwd-declared here.
  explicit Simulation(EnvironmentTable table);

  /// Append one {"tick":N,"metrics":{...}} line to artifacts.metrics_path.
  Status AppendMetricsLine() const;

  /// Install a rebuilt table + tick and re-sync every delta consumer
  /// (change tracking, the storage listener).
  Status InstallWorld(EnvironmentTable table, int64_t tick);

  std::string name_;
  SimulationConfig config_;
  EnvironmentTable table_;
  std::vector<std::unique_ptr<ScriptSession>> sessions_;
  AttrId dispatch_attr_ = Schema::kInvalidAttr;
  std::map<double, int32_t> dispatch_map_;  // dispatch value -> session
  int32_t default_session_ = -1;
  std::unique_ptr<GameMechanics> mechanics_;  // owned; may be null
  std::vector<ApplyEffectsHook> apply_hooks_;
  std::vector<EndTickHook> end_tick_hooks_;
  std::vector<std::unique_ptr<TickPhase>> pipeline_;
  std::unique_ptr<SharingContext> sharing_;  // null when sharing is off
  EffectBuffer buffer_;
  PhaseStatsRegistry stats_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::Tracer> tracer_;        // null = tracing off
  std::unique_ptr<obs::FlightRecorder> recorder_;  // null = recorder off
  obs::Counter* ticks_counter_ = nullptr;
  obs::Histogram* tick_ns_hist_ = nullptr;
  // This simulation's first metrics write truncates any stale file at
  // metrics_path; later writes append (one line per tick).
  mutable bool metrics_file_started_ = false;
  int64_t tick_count_ = 0;
  int32_t threads_ = 1;
  /// The private pool built from config threads, or the shared executor
  /// injected through SimulationBuilder::Executor (the session layer
  /// runs many simulations on one pool). Null = sequential pipeline.
  std::shared_ptr<exec::ThreadPool> pool_;
  serve::ActionInlet inlet_;
  obs::Counter* inlet_applied_ = nullptr;
  obs::Counter* inlet_dropped_ = nullptr;
  /// The disk-backed world store; null when config storage is disabled.
  std::unique_ptr<storage::WorldStore> store_;
};

/// Fluent assembly of a Simulation. All setters return *this; Build()
/// validates the whole configuration and hands over ownership.
class SimulationBuilder {
 public:
  SimulationBuilder();
  ~SimulationBuilder();

  SimulationBuilder(const SimulationBuilder&) = delete;
  SimulationBuilder& operator=(const SimulationBuilder&) = delete;

  /// The environment table E (required).
  SimulationBuilder& SetTable(EnvironmentTable table);

  SimulationBuilder& SetConfig(SimulationConfig config);

  /// Label the simulation (surfaced by Simulation::name() and Explain();
  /// the scenario registry stamps the scenario name here).
  SimulationBuilder& SetName(std::string name);

  /// In-place access to the configuration accumulated so far. Scenario
  /// hooks use this to adjust workload-specific knobs (grid size, movement
  /// attributes, step) without clobbering caller-chosen evaluator mode,
  /// seed, or thread count via a wholesale SetConfig.
  SimulationConfig& config() { return config_; }

  /// Run a composable configuration hook against this builder right away.
  /// Scenario definitions are expressed as such hooks: each registers its
  /// scripts, mechanics, and config tweaks. A failed hook is remembered
  /// and surfaces as the error of Build(), keeping the fluent chain.
  SimulationBuilder& Apply(
      const std::function<Status(SimulationBuilder&)>& hook);

  /// Worker threads for the parallel tick phases: n == 1 single-threaded,
  /// n == 0 auto-detect hardware concurrency, n > 1 a fixed pool.
  /// Shorthand for config.threads; bit-exact results either way.
  SimulationBuilder& Threads(int32_t n);

  /// Run the parallel phases on an externally owned, shared thread pool
  /// instead of building a private one. The serving layer uses this to
  /// run many sessions on one pool (src/serve/session_manager.h); for a
  /// standalone simulation, config threads keeps working unchanged.
  /// When set, it overrides config.threads and the resolved threads()
  /// becomes the pool's size — results stay bit-identical either way.
  SimulationBuilder& Executor(std::shared_ptr<exec::ThreadPool> pool);

  /// Register the default script: units not matched by any dispatch value
  /// (or all units, when it is the only script) run its main.
  SimulationBuilder& AddScript(std::string name, Script script);

  /// Register a script for units whose dispatch attribute (DispatchBy)
  /// equals `dispatch_value`.
  SimulationBuilder& AddScript(std::string name, Script script,
                               double dispatch_value);

  /// Name of the schema attribute that selects a unit's script.
  /// Required as soon as any script has a dispatch value.
  SimulationBuilder& DispatchBy(std::string attr_name);

  /// Register owned game mechanics. Its ApplyEffects/EndTick run before
  /// any function hooks registered below.
  SimulationBuilder& SetMechanics(std::unique_ptr<GameMechanics> mechanics);

  /// Register function-style mechanics hooks; may be called repeatedly,
  /// hooks run in registration order.
  SimulationBuilder& OnApplyEffects(ApplyEffectsHook hook);
  SimulationBuilder& OnEndTick(EndTickHook hook);

  /// Append a custom phase to the end of the pipeline.
  SimulationBuilder& AddPhase(std::unique_ptr<TickPhase> phase);

  /// Insert a custom phase next to the named phase (built-in or custom).
  SimulationBuilder& InsertPhaseBefore(std::string anchor,
                                       std::unique_ptr<TickPhase> phase);
  SimulationBuilder& InsertPhaseAfter(std::string anchor,
                                      std::unique_ptr<TickPhase> phase);

  /// Drop a built-in phase from the pipeline.
  SimulationBuilder& DisablePhase(std::string name);

  /// Reorder the built-in phases; `order` must be a permutation of the
  /// default pipeline's phase names (after DisablePhase removals).
  SimulationBuilder& SetPhaseOrder(std::vector<std::string> order);

  /// Validate and assemble. The builder is left in a moved-from state.
  Result<std::unique_ptr<Simulation>> Build();

 private:
  struct PhaseEdit {
    enum class Kind { kAppend, kInsertBefore, kInsertAfter } kind;
    std::string anchor;  // insert edits only
    std::unique_ptr<TickPhase> phase;
  };

  bool has_table_ = false;
  std::string name_;
  std::shared_ptr<exec::ThreadPool> executor_;  // null: build a private pool
  Status deferred_error_;  // first Apply() hook failure, surfaced by Build
  EnvironmentTable table_{Schema()};
  SimulationConfig config_;
  std::vector<std::unique_ptr<ScriptSession>> sessions_;
  std::string dispatch_attr_name_;
  std::unique_ptr<GameMechanics> mechanics_;
  std::vector<ApplyEffectsHook> apply_hooks_;
  std::vector<EndTickHook> end_tick_hooks_;
  std::vector<PhaseEdit> phase_edits_;
  std::vector<std::string> disabled_phases_;
  std::vector<std::string> phase_order_;
};

}  // namespace sgl

#endif  // SGL_ENGINE_SIMULATION_H_
