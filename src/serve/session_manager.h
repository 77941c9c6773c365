// SessionManager — many independent simulations served from one process
// on one shared thread pool (the src/serve/ subsystem's core).
//
// The paper scales one epic battle; a game service runs *many* worlds at
// once — match instances, shards of a lobby, A/B variants. SessionManager
// multiplexes N Simulation sessions over a single exec::ThreadPool:
// admission control caps the session count and the total unit population
// (kResourceExhausted on overflow, surfaced as serve.rejected), a
// round-robin scheduler advances every session up to `tick_budget` ticks
// per round so no session starves, and each session carries its own
// ActionInlet for externally injected unit actions with per-session
// queue-depth backpressure.
//
// A round is planned once per call, and its sessions tick side by side:
// the pool splits the due sessions into at most one contiguous run per
// thread, each pool thread ticks its run, and the ParallelFor calls inside
// those ticks run inline on that thread. A lone due session is a single
// run on the serving thread, so its tick still gets the whole pool.
//
// Determinism carries through the whole stack: a tick reads only its own
// frozen world, and pool chunking depends only on the pool size — inline
// nested calls use the same chunk bounds — so a session co-scheduled with
// K - 1 neighbors is bit-identical to the same simulation run alone on an
// equally sized pool, injected actions included (tests/serve_test.cc
// enforces the full matrix).
//
// Threading contract: Open, Close, ScheduleTicks, RunRound, RunUntilIdle,
// and MetricsJson are serving-thread operations — one external thread at
// a time, the same discipline exec::ThreadPool imposes. Inject may be
// called from any thread at any time, including mid-round.
#ifndef SGL_SERVE_SESSION_MANAGER_H_
#define SGL_SERVE_SESSION_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "engine/simulation.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/action_inlet.h"
#include "util/status.h"

namespace sgl {
namespace serve {

/// Capacity and scheduling knobs of a SessionManager. Every limit is
/// enforced with Status::ResourceExhausted, never by blocking.
struct SessionManagerOptions {
  /// Size of the shared worker pool every session runs on (0 =
  /// auto-detect hardware concurrency). A session admitted here resolves
  /// threads() to this pool's size regardless of its config.threads.
  int32_t threads = 1;

  /// Admission control: maximum concurrently open sessions.
  int32_t max_sessions = 8;

  /// Admission control: maximum total unit rows summed over every open
  /// session, measured at admission time.
  int64_t max_total_rows = 1000000;

  /// Scheduler fairness: maximum ticks one session advances per
  /// RunRound before the next session gets the pool.
  int64_t tick_budget = 16;

  /// Backpressure: maximum queued (undrained) injected actions per
  /// session; Inject beyond it is rejected.
  int64_t max_queued_actions = 4096;

  /// Field-by-field sanity check, same error vocabulary as
  /// SimulationConfig::Validate.
  Status Validate() const;
};

using SessionId = int64_t;

class SessionManager {
 public:
  /// Validate `options`, build the shared pool, and start empty.
  static Result<std::unique_ptr<SessionManager>> Create(
      SessionManagerOptions options);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admit the session a prepared builder describes: validate its config,
  /// inject the shared executor, Build, and check capacity. Returns the
  /// new session's id, or kResourceExhausted when the session or row
  /// limit is full (the session-limit check runs first and leaves the
  /// builder untouched; any later rejection consumes it, like Build).
  Result<SessionId> Open(SimulationBuilder& builder);

  /// The session's simulation (read it, snapshot it, inspect metrics);
  /// null for an unknown id. Serving-thread only, like all mutation.
  Simulation* session(SessionId id);
  const Simulation* session(SessionId id) const;

  /// Ask the scheduler to advance the session `ticks` more ticks across
  /// the next rounds.
  Status ScheduleTicks(SessionId id, int64_t ticks);

  /// One scheduling round: every open session advances min(pending,
  /// tick_budget) ticks on the shared pool. The due sessions tick side by
  /// side as pool tasks, each pool thread taking a contiguous run of them
  /// in ascending id order; a lone due session's tick uses the whole pool.
  /// Returns the number of ticks executed (0 = every session idle).
  ///
  /// A failing session stops at its first failed tick; every other
  /// session still runs its slice. Completed ticks are always debited
  /// from pending and counted in serve.ticks, and the error returned is
  /// the lowest-id failing session's, prefixed "session <id>: ".
  Result<int64_t> RunRound();

  /// RunRound until no session has pending ticks.
  Status RunUntilIdle();

  /// Queue one injected action onto the session's inlet (thread-safe;
  /// callable while a round is running). Returns the stamped sequence
  /// number, or kResourceExhausted when the session's queue is at
  /// max_queued_actions.
  Result<int64_t> Inject(SessionId id, InjectedAction action);

  /// Graceful teardown: run the session's remaining scheduled ticks,
  /// then release it from the manager and hand the simulation (with its
  /// inlet log) back to the caller.
  Result<std::unique_ptr<Simulation>> Close(SessionId id);

  int32_t NumSessions() const;
  int64_t TotalRows() const;
  const SessionManagerOptions& options() const { return options_; }
  const std::shared_ptr<exec::ThreadPool>& executor() const { return pool_; }

  /// One flat name-sorted JSON object: the manager's own serve.* metrics
  /// plus every session's registry re-keyed session.<id>.<name>;
  /// histograms (serve.round_ns, a session's engine.tick.ns) appear as
  /// .count, .sum and .bucket.<edge> entries. With
  /// `deterministic_only`, only deterministic metrics are kept — the form
  /// the lockstep tests compare.
  std::string MetricsJson(bool deterministic_only = false) const;

 private:
  struct Session {
    std::unique_ptr<Simulation> sim;
    int64_t pending_ticks = 0;
  };

  explicit SessionManager(SessionManagerOptions options);

  /// Recompute the backpressure gauges from live state (mu_ held).
  void RefreshGaugesLocked();

  const SessionManagerOptions options_;
  std::shared_ptr<exec::ThreadPool> pool_;

  /// Guards sessions_ and metrics_ against Inject (any thread) racing
  /// the serving thread; the serving thread holds it for bookkeeping but
  /// never across Tick calls, so injection stays live mid-round.
  mutable std::mutex mu_;
  std::map<SessionId, Session> sessions_;
  SessionId next_id_ = 0;
  obs::MetricsRegistry metrics_;
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Gauge* queued_actions_gauge_ = nullptr;
  obs::Gauge* queued_ticks_gauge_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* ticks_ = nullptr;
  /// Wall time of each non-empty round (exec-dependent).
  obs::Histogram* round_ns_ = nullptr;
};

}  // namespace serve
}  // namespace sgl

#endif  // SGL_SERVE_SESSION_MANAGER_H_
