// ActionInlet — externally injected unit actions as a deterministic
// effect source (the src/serve/ subsystem).
//
// A live service accepts commands for individual units ("move this
// knight", "freeze that trader") from outside the simulation loop. The
// state-effect pattern has no room for asynchronous mutation mid-tick,
// so the inlet turns external input into a deterministic input stream:
// producers Push actions at any time (thread-safe), each action is
// stamped with a monotonically increasing sequence number, and the
// engine drains the queue once per tick — at tick start, before any
// phase runs — applying the queued actions in sequence order.
//
// Determinism and replay: every applied action is recorded in the inlet
// log together with the tick at whose start it was applied. The pair
// (initial world, inlet log) fully determines the run — Replay feeds a
// recorded log back into a fresh simulation, where each record applies
// at exactly its recorded tick, reproducing the live run bit for bit
// (tests/serve_test.cc enforces it). Simulation::Checkpoint persists
// the log next to the world (SaveLog) and RestoreFrom reloads it
// (RestoreLog), so a restored run replays its still-pending actions.
//
// Application semantics are deliberately small: an action writes one
// attribute of one unit, either overwriting (kSet) or adding (kAdd).
// Actions naming a unit key or attribute that no longer exists are
// dropped and counted, never errors — over a service boundary a stale
// command (the unit died last tick) is ordinary traffic, and whether it
// applies is a pure function of the table state, so drops replay
// identically too.
#ifndef SGL_SERVE_ACTION_INLET_H_
#define SGL_SERVE_ACTION_INLET_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "env/table.h"
#include "util/status.h"

namespace sgl {
namespace serve {

/// One externally injected unit action: write `value` into attribute
/// `attr` of the unit holding `unit_key`.
struct InjectedAction {
  enum class Op : uint8_t {
    kSet = 0,  ///< overwrite the attribute with `value`
    kAdd = 1,  ///< add `value` to the attribute
  };

  int64_t unit_key = 0;
  std::string attr;  ///< schema attribute name (never the key)
  Op op = Op::kSet;
  double value = 0.0;
};

/// One inlet log entry: the action, the sequence number stamped on Push,
/// and the tick at whose start it was applied (or is pinned to apply,
/// for replay entries; kUnpinned while live in the queue).
struct InletRecord {
  static constexpr int64_t kUnpinned = -1;

  int64_t seq = 0;
  int64_t tick = kUnpinned;
  InjectedAction action;
};

/// What one DrainInto pass did, folded into the owning simulation's
/// metrics registry by the engine (the inlet itself stays registry-free:
/// Push is cross-thread, registry counters are not).
struct InletDrainStats {
  int64_t applied = 0;
  int64_t dropped = 0;  ///< unknown key, unknown attribute, or key attr
};

class ActionInlet {
 public:
  ActionInlet() = default;
  ActionInlet(const ActionInlet&) = delete;
  ActionInlet& operator=(const ActionInlet&) = delete;

  /// Queue an action (thread-safe; callable while a tick is running).
  /// Returns the stamped sequence number. The action applies at the
  /// start of the next tick whose drain observes it.
  int64_t Push(InjectedAction action);

  /// Current queue depth (thread-safe) — the backpressure signal the
  /// session layer surfaces as serve.queued_actions.
  int64_t QueuedCount() const;

  /// Replace the queue with a recorded log for replay. Each record keeps
  /// its recorded tick and applies exactly at that tick's start; records
  /// must be in ascending (tick, seq) order with no tick earlier than
  /// the simulation's next tick. Live Pushes may not be mixed into a
  /// replaying inlet until the loaded log has fully drained.
  Status Replay(std::vector<InletRecord> records);

  /// Persist the applied-action log to `path` (binary, little-endian,
  /// checksummed), replacing any previous file by atomic rename so a
  /// crash mid-write never leaves a torn log. An empty log still writes
  /// a valid file.
  Status SaveLog(const std::string& path) const;

  /// Load a log written by SaveLog into a simulation restored to state
  /// `tick`: records applied before `tick` become history (the log), and
  /// records at or after it re-queue, pinned, to apply again as the
  /// restored run re-executes those ticks. A missing file is OK (the
  /// inlet just resets). The queue must be empty.
  Status RestoreLog(const std::string& path, int64_t tick);

  /// Engine-side, called once at the start of tick `tick`: apply every
  /// queued unpinned action plus every replay record pinned to `tick`,
  /// in sequence order, and append them to the log. A replay record
  /// pinned to an earlier tick is an Internal error (the log and the
  /// simulation disagree about time).
  Status DrainInto(EnvironmentTable* table, int64_t tick,
                   InletDrainStats* stats);

  /// The applied-action log in application (sequence) order; feed it to
  /// Replay on a fresh simulation to reproduce this run.
  std::vector<InletRecord> Log() const;

  /// Total actions ever applied / dropped (thread-safe).
  int64_t applied() const;
  int64_t dropped() const;

 private:
  /// Apply one action to the table; returns false for a drop (unknown
  /// key, unknown attribute, or an attempt to write the key attribute).
  static bool Apply(const InjectedAction& action, EnvironmentTable* table);

  mutable std::mutex mu_;
  int64_t next_seq_ = 0;
  std::deque<InletRecord> queue_;
  std::vector<InletRecord> log_;
  int64_t applied_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace serve
}  // namespace sgl

#endif  // SGL_SERVE_ACTION_INLET_H_
