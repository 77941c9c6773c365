// Composable per-tick phases (the pipeline behind sgl::Simulation).
//
// Section 6 presents the engine as a fixed sequence of per-tick phases;
// here each phase is a first-class TickPhase object registered with a
// Simulation. The default pipeline reproduces the paper's order
//
//   index-build -> decision-action -> deferred-index -> apply
//                -> movement -> mechanics
//
// but users can reorder, disable, or extend it with custom phases through
// SimulationBuilder. Every phase reports its own PhaseStats (time, rows
// scanned, index probes) into the simulation's PhaseStatsRegistry.
#ifndef SGL_ENGINE_PHASE_H_
#define SGL_ENGINE_PHASE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/effect_buffer.h"
#include "env/table.h"
#include "exec/sharded_effect_buffer.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/status.h"
#include "vm/vm.h"

namespace sgl {

class Simulation;

/// Canonical names of the built-in phases (stats keys and the anchors for
/// SimulationBuilder::InsertPhaseBefore/After and DisablePhase).
namespace phase_names {
inline constexpr const char kIndexBuild[] = "index-build";
inline constexpr const char kDecisionAction[] = "decision-action";
inline constexpr const char kDeferredIndex[] = "deferred-index";
inline constexpr const char kApply[] = "apply";
inline constexpr const char kMovement[] = "movement";
inline constexpr const char kMechanics[] = "mechanics";
}  // namespace phase_names

/// Counters one phase accumulates across ticks. Each slot is a bundle of
/// handles into a metrics registry ("phase.<name>.*" metrics), so the
/// stats table, Explain(), the flight recorder, and exported snapshots
/// all read the same storage. Timing fields (ns, max_worker_ns, workers)
/// are execution-dependent; invocations and rows_scanned are
/// deterministic counts, and index_probes is deterministic unless
/// aggregate sharing is on (the decorated providers only see memo
/// misses, whose split across shards races).
class PhaseStats {
 public:
  // Writers — called by the tick runner, or with per-worker values folded
  // in after a ParallelFor has joined.
  void AddNanos(int64_t ns) { ns_->Add(ns); }
  void AddInvocation() { invocations_->Add(1); }
  void AddRowsScanned(int64_t rows) { rows_scanned_->Add(rows); }
  void AddIndexProbes(int64_t probes) { index_probes_->Add(probes); }
  void NoteWorkers(int64_t workers) { workers_->SetMax(workers); }
  void AddMaxWorkerNs(int64_t ns) { max_worker_ns_->Add(ns); }

  // Readers.
  double seconds() const {
    return static_cast<double>(ns_->value()) * 1e-9;
  }
  int64_t invocations() const { return invocations_->value(); }
  int64_t rows_scanned() const { return rows_scanned_->value(); }
  int64_t index_probes() const { return index_probes_->value(); }
  int64_t workers() const { return workers_->value(); }
  int64_t max_worker_ns() const { return max_worker_ns_->value(); }

 private:
  friend class PhaseStatsRegistry;

  void Bind(obs::MetricsRegistry* metrics, const std::string& phase,
            uint32_t probe_flags);
  void ResetValues();

  obs::Counter* ns_ = nullptr;
  obs::Counter* invocations_ = nullptr;
  obs::Counter* rows_scanned_ = nullptr;
  obs::Counter* index_probes_ = nullptr;
  obs::Gauge* workers_ = nullptr;
  obs::Counter* max_worker_ns_ = nullptr;
};

/// Per-phase stats, keyed by phase name in first-registration (pipeline)
/// order.
class PhaseStatsRegistry {
 public:
  /// Bind future slots into `registry` (SimulationBuilder calls this with
  /// the simulation's registry before any tick; a detached
  /// PhaseStatsRegistry lazily creates a private one). `probe_flags` is
  /// applied to the index_probes counters — kMetricExecDependent when
  /// aggregate sharing makes probe splits race.
  void Attach(obs::MetricsRegistry* registry, uint32_t probe_flags);

  /// The (created-on-demand) slot for `phase`. References stay valid for
  /// the registry's lifetime (deque storage), so phases may create slots
  /// while the runner holds a reference to another one.
  PhaseStats& Slot(const std::string& phase);

  /// The slot for `phase`, or nullptr if it never ran.
  const PhaseStats* Find(const std::string& phase) const;

  const std::deque<std::pair<std::string, PhaseStats>>& stats() const {
    return stats_;
  }

  /// Zero every slot's metrics and forget the slots.
  void Clear();

  /// Multi-line table: per phase, invocations, total seconds, ms/tick,
  /// rows scanned, index probes, parallelism, and share of total time.
  std::string ToString() const;

 private:
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  uint32_t probe_flags_ = obs::kMetricNone;
  std::deque<std::pair<std::string, PhaseStats>> stats_;
};

/// Everything a phase may touch during one clock tick. The pointers stay
/// valid for the duration of the phase's Run call only.
struct TickContext {
  Simulation* sim = nullptr;         ///< owning simulation (scripts, hooks)
  EnvironmentTable* table = nullptr; ///< the environment table E
  EffectBuffer* buffer = nullptr;    ///< this tick's incremental ⊕
  const TickRandom* rnd = nullptr;   ///< the tick's random function r(u, i)
  exec::ThreadPool* pool = nullptr;  ///< worker pool; null = single thread
  int64_t tick = 0;                  ///< tick number being executed
  PhaseStats* stats = nullptr;       ///< the running phase's own slot
  obs::Tracer* tracer = nullptr;     ///< span/instant sink; null = off
};

/// One stage of the per-tick pipeline. Subclass and register through
/// SimulationBuilder to observe or transform the world each tick.
class TickPhase {
 public:
  explicit TickPhase(std::string name) : name_(std::move(name)) {}
  virtual ~TickPhase() = default;

  TickPhase(const TickPhase&) = delete;
  TickPhase& operator=(const TickPhase&) = delete;

  const std::string& name() const { return name_; }

  virtual Status Run(TickContext* ctx) = 0;

 private:
  std::string name_;
};

// ------------------------------------------------------------------------
// Built-in phases. All are constructed by SimulationBuilder::Build; they
// are exposed here so custom pipelines can re-instantiate them.

/// Phase 1: rebuild the Section 5.3 aggregate-index families of every
/// script session (no-op for the naive evaluator).
class IndexBuildPhase : public TickPhase {
 public:
  IndexBuildPhase() : TickPhase(phase_names::kIndexBuild) {}
  Status Run(TickContext* ctx) override;
};

/// Phase 2: every unit evaluates the main function of the script its
/// dispatch-attribute value selects, streaming effects into the buffer.
/// With a thread pool, rows split into contiguous chunks evaluated
/// concurrently — each chunk writes an exec::EffectShard merged back in
/// chunk order, so results are bit-identical to single-threaded runs (the
/// state-effect pattern makes decisions read only frozen pre-tick state).
/// Sessions with compiled bytecode (SimulationConfig::compiled) run
/// through the batch VM — a batch is a same-session row run within a
/// chunk — with the interpreter serving the remaining sessions.
class DecisionActionPhase : public TickPhase {
 public:
  DecisionActionPhase() : TickPhase(phase_names::kDecisionAction) {}
  Status Run(TickContext* ctx) override;

 private:
  /// Evaluate rows [lo, hi) in ascending order into `sink`, batching
  /// same-session runs through the VM where the session is compiled.
  Status RunRange(TickContext* ctx, RowId lo, RowId hi, EffectSink* sink,
                  int32_t shard);

  void EnsureExecutors(int32_t count) {
    while (static_cast<int32_t>(executors_.size()) < count) {
      executors_.push_back(std::make_unique<vm::BatchExecutor>());
    }
  }

  void SetExecutorTracers(obs::Tracer* tracer) {
    for (auto& executor : executors_) executor->set_tracer(tracer);
  }

  // Reused across ticks so shard logs keep their capacity instead of
  // reallocating on the hottest path (cleared after every merge).
  exec::ShardedEffectBuffer sharded_{0};
  /// One batch executor per ParallelFor chunk (index 0 also serves the
  /// sequential path); persistent so register files keep their capacity
  /// and hoisted prologues their values across ticks.
  std::vector<std::unique_ptr<vm::BatchExecutor>> executors_;
};

/// Phase 3: build the value-dependent indexes over deferred area-of-effect
/// actions (Section 5.4) and fold them into the buffer.
class DeferredIndexPhase : public TickPhase {
 public:
  DeferredIndexPhase() : TickPhase(phase_names::kDeferredIndex) {}
  Status Run(TickContext* ctx) override;
};

/// Phase 4: write the combined effects back into the table and run the
/// registered apply-effects hooks (the Example 4.1 post-processing).
class ApplyPhase : public TickPhase {
 public:
  ApplyPhase() : TickPhase(phase_names::kApply) {}
  Status Run(TickContext* ctx) override;
};

/// Phase 5: units move in deterministic random order with grid collision
/// detection and very simple pathfinding.
class MovementPhase : public TickPhase {
 public:
  MovementPhase(AttrId move_x, AttrId move_y, AttrId posx, AttrId posy,
                int64_t grid_width, int64_t grid_height, double step_per_tick,
                bool collisions)
      : TickPhase(phase_names::kMovement),
        move_x_(move_x),
        move_y_(move_y),
        posx_(posx),
        posy_(posy),
        grid_width_(grid_width),
        grid_height_(grid_height),
        step_per_tick_(step_per_tick),
        collisions_(collisions) {}

  Status Run(TickContext* ctx) override;

 private:
  AttrId move_x_;
  AttrId move_y_;
  AttrId posx_;
  AttrId posy_;
  int64_t grid_width_;
  int64_t grid_height_;
  double step_per_tick_;
  bool collisions_;
};

/// Phase 6: run the registered end-of-tick hooks (death, resurrection,
/// spawning).
class MechanicsPhase : public TickPhase {
 public:
  MechanicsPhase() : TickPhase(phase_names::kMechanics) {}
  Status Run(TickContext* ctx) override;
};

}  // namespace sgl

#endif  // SGL_ENGINE_PHASE_H_
