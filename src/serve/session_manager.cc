#include "serve/session_manager.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace sgl {
namespace serve {

Status SessionManagerOptions::Validate() const {
  if (threads < 0) {
    return Status::Invalid(
        "SessionManagerOptions: threads must be >= 0 (0 = auto-detect), got ",
        threads);
  }
  if (max_sessions < 1) {
    return Status::Invalid(
        "SessionManagerOptions: max_sessions must be >= 1, got ",
        max_sessions);
  }
  if (max_total_rows < 1) {
    return Status::Invalid(
        "SessionManagerOptions: max_total_rows must be >= 1, got ",
        max_total_rows);
  }
  if (tick_budget < 1) {
    return Status::Invalid(
        "SessionManagerOptions: tick_budget must be >= 1, got ", tick_budget);
  }
  if (max_queued_actions < 1) {
    return Status::Invalid(
        "SessionManagerOptions: max_queued_actions must be >= 1, got ",
        max_queued_actions);
  }
  return Status::OK();
}

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)) {
  sessions_gauge_ = metrics_.GetGauge("serve.sessions");
  queued_actions_gauge_ = metrics_.GetGauge("serve.queued_actions");
  queued_ticks_gauge_ = metrics_.GetGauge("serve.queued_ticks");
  admitted_ = metrics_.GetCounter("serve.admitted");
  rejected_ = metrics_.GetCounter("serve.rejected");
  closed_ = metrics_.GetCounter("serve.closed");
  ticks_ = metrics_.GetCounter("serve.ticks");
  round_ns_ = metrics_.GetHistogram(
      "serve.round_ns",
      {100000, 1000000, 10000000, 100000000, 1000000000, 10000000000},
      obs::kMetricExecDependent);
}

Result<std::unique_ptr<SessionManager>> SessionManager::Create(
    SessionManagerOptions options) {
  SGL_RETURN_NOT_OK(options.Validate());
  if (options.threads == 0) {
    options.threads = exec::ThreadPool::HardwareThreads();
  }
  std::unique_ptr<SessionManager> manager(
      new SessionManager(std::move(options)));
  // Every session shares this one pool — even a 1-thread pool goes
  // through it, so admitted sessions always resolve the same threads().
  manager->pool_ =
      std::make_shared<exec::ThreadPool>(manager->options_.threads);
  return manager;
}

void SessionManager::RefreshGaugesLocked() {
  sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  int64_t queued_actions = 0;
  int64_t queued_ticks = 0;
  for (const auto& [id, session] : sessions_) {
    queued_actions += session.sim->inlet()->QueuedCount();
    queued_ticks += session.pending_ticks;
  }
  queued_actions_gauge_->Set(queued_actions);
  queued_ticks_gauge_->Set(queued_ticks);
}

Result<SessionId> SessionManager::Open(SimulationBuilder& builder) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int32_t>(sessions_.size()) >= options_.max_sessions) {
      rejected_->Add(1);
      return Status::ResourceExhausted(
          "SessionManager: session limit reached (", options_.max_sessions,
          " open)");
    }
  }
  SGL_RETURN_NOT_OK(builder.config().Validate());
  builder.Executor(pool_);
  SGL_ASSIGN_OR_RETURN(std::unique_ptr<Simulation> sim, builder.Build());

  std::lock_guard<std::mutex> lock(mu_);
  const int64_t new_rows = sim->table().NumRows();
  int64_t rows = new_rows;
  for (const auto& [id, session] : sessions_) {
    rows += session.sim->table().NumRows();
  }
  if (rows > options_.max_total_rows) {
    rejected_->Add(1);
    return Status::ResourceExhausted(
        "SessionManager: row limit reached (", rows - new_rows, " resident + ",
        new_rows, " requested > ", options_.max_total_rows, ")");
  }
  const SessionId id = next_id_++;
  sessions_[id].sim = std::move(sim);
  admitted_->Add(1);
  RefreshGaugesLocked();
  return id;
}

Simulation* SessionManager::session(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.sim.get();
}

const Simulation* SessionManager::session(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.sim.get();
}

Status SessionManager::ScheduleTicks(SessionId id, int64_t ticks) {
  if (ticks < 0) {
    return Status::Invalid("SessionManager: cannot schedule ", ticks,
                           " ticks");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("SessionManager: no session ", id);
  }
  it->second.pending_ticks += ticks;
  RefreshGaugesLocked();
  return Status::OK();
}

Result<int64_t> SessionManager::RunRound() {
  // Plan the round under the lock, tick outside it: Inject from other
  // threads must stay live while sessions run, and a Tick can take a
  // while. Open/Close are serving-thread calls, so the planned pointers
  // cannot be invalidated mid-round.
  struct Slice {
    SessionId id;
    Simulation* sim;
    int64_t ticks;
    int64_t ran;     // ticks that completed
    Status status;  // the first failed tick's error
  };
  std::vector<Slice> plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) {
      const int64_t ticks =
          std::min(session.pending_ticks, options_.tick_budget);
      if (ticks > 0) {
        plan.push_back(Slice{id, session.sim.get(), ticks, 0, Status::OK()});
      }
    }
  }
  if (plan.empty()) return 0;

  // A slice stops at its first failed tick; the other slices still run.
  const auto run_slice = [](Slice* slice) {
    while (slice->ran < slice->ticks) {
      slice->status = slice->sim->Tick();
      if (!slice->status.ok()) return;
      ++slice->ran;
    }
  };
  // Side by side: the pool splits the slices into at most num_threads()
  // contiguous runs and each pool thread ticks its run. A session's own
  // ParallelFor calls then run inline on that thread with the same chunk
  // bounds, so each session stays bit-identical to its solo run. A lone
  // slice is one chunk, run on this thread outside any chunk body, so its
  // tick still gets the whole pool.
  const Timer round_timer;
  SGL_RETURN_NOT_OK(pool_->ParallelFor(
      static_cast<int64_t>(plan.size()), /*grain=*/1,
      [&](int32_t, int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) run_slice(&plan[s]);
        return Status::OK();
      }));

  std::lock_guard<std::mutex> lock(mu_);
  round_ns_->Record(round_timer.Nanos());
  int64_t executed = 0;
  Status first_error;
  for (const Slice& slice : plan) {
    auto it = sessions_.find(slice.id);
    if (it != sessions_.end()) it->second.pending_ticks -= slice.ran;
    ticks_->Add(slice.ran);
    executed += slice.ran;
    if (first_error.ok() && !slice.status.ok()) {
      first_error = Status(slice.status.code(),
                           "session " + std::to_string(slice.id) + ": " +
                               slice.status.ToString());
    }
  }
  RefreshGaugesLocked();
  if (!first_error.ok()) return first_error;
  return executed;
}

Status SessionManager::RunUntilIdle() {
  for (;;) {
    SGL_ASSIGN_OR_RETURN(int64_t executed, RunRound());
    if (executed == 0) return Status::OK();
  }
}

Result<int64_t> SessionManager::Inject(SessionId id, InjectedAction action) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("SessionManager: no session ", id);
  }
  ActionInlet* inlet = it->second.sim->inlet();
  if (inlet->QueuedCount() >= options_.max_queued_actions) {
    rejected_->Add(1);
    return Status::ResourceExhausted(
        "SessionManager: session ", id, " action queue is full (",
        options_.max_queued_actions, " queued)");
  }
  const int64_t seq = inlet->Push(std::move(action));
  RefreshGaugesLocked();
  return seq;
}

Result<std::unique_ptr<Simulation>> SessionManager::Close(SessionId id) {
  // Graceful: whatever ticks the caller scheduled still run (RunRound
  // keeps the budgeted fairness), then the session leaves the manager.
  for (;;) {
    int64_t pending = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        return Status::NotFound("SessionManager: no session ", id);
      }
      pending = it->second.pending_ticks;
    }
    if (pending == 0) break;
    SGL_RETURN_NOT_OK(RunRound().status());
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("SessionManager: no session ", id);
  }
  std::unique_ptr<Simulation> sim = std::move(it->second.sim);
  sessions_.erase(it);
  closed_->Add(1);
  RefreshGaugesLocked();
  return sim;
}

int32_t SessionManager::NumSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int32_t>(sessions_.size());
}

int64_t SessionManager::TotalRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t rows = 0;
  for (const auto& [id, session] : sessions_) {
    rows += session.sim->table().NumRows();
  }
  return rows;
}

std::string SessionManager::MetricsJson(bool deterministic_only) const {
  std::lock_guard<std::mutex> lock(mu_);
  // One flat, name-sorted object: the serve.* metrics plus every
  // session's registry under its session.<id>. prefix. std::map keeps
  // the rendering byte-stable for identical state.
  std::map<std::string, int64_t> merged;
  for (const auto& [name, value] : metrics_.FlatValues(deterministic_only)) {
    merged[name] = value;
  }
  for (const auto& [id, session] : sessions_) {
    const std::string prefix = "session." + std::to_string(id) + ".";
    for (const auto& [name, value] :
         session.sim->metrics().FlatValues(deterministic_only)) {
      merged[prefix + name] = value;
    }
  }
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, value] : merged) {
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::JsonEscape(name) << "\":" << value;
  }
  os << "}";
  return os.str();
}

}  // namespace serve
}  // namespace sgl
