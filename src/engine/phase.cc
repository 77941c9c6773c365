#include "engine/phase.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "engine/simulation.h"
#include "exec/sharded_effect_buffer.h"
#include "util/timer.h"

namespace sgl {

namespace {

/// Occupancy key for integer grid cells.
int64_t CellKey(int64_t x, int64_t y) { return (x << 32) ^ (y & 0xffffffff); }

/// Total index probes issued so far across every session's provider.
int64_t TotalProbes(Simulation* sim) {
  int64_t probes = 0;
  for (const auto& session : sim->sessions()) {
    if (session->provider != nullptr) {
      probes += session->provider->probe_count();
    }
  }
  return probes;
}

}  // namespace

void PhaseStats::Bind(obs::MetricsRegistry* metrics, const std::string& phase,
                      uint32_t probe_flags) {
  const std::string prefix = "phase." + phase + ".";
  ns_ = metrics->GetCounter(prefix + "ns", obs::kMetricExecDependent);
  invocations_ = metrics->GetCounter(prefix + "invocations");
  rows_scanned_ = metrics->GetCounter(prefix + "rows_scanned");
  index_probes_ = metrics->GetCounter(prefix + "index_probes", probe_flags);
  workers_ = metrics->GetGauge(prefix + "workers", obs::kMetricExecDependent);
  max_worker_ns_ =
      metrics->GetCounter(prefix + "max_worker_ns", obs::kMetricExecDependent);
}

void PhaseStats::ResetValues() {
  ns_->Reset();
  invocations_->Reset();
  rows_scanned_->Reset();
  index_probes_->Reset();
  workers_->Reset();
  max_worker_ns_->Reset();
}

void PhaseStatsRegistry::Attach(obs::MetricsRegistry* registry,
                                uint32_t probe_flags) {
  metrics_ = registry;
  probe_flags_ = probe_flags;
}

PhaseStats& PhaseStatsRegistry::Slot(const std::string& phase) {
  for (auto& [name, stats] : stats_) {
    if (name == phase) return stats;
  }
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  stats_.emplace_back(phase, PhaseStats{});
  stats_.back().second.Bind(metrics_, phase, probe_flags_);
  return stats_.back().second;
}

const PhaseStats* PhaseStatsRegistry::Find(const std::string& phase) const {
  for (const auto& [name, stats] : stats_) {
    if (name == phase) return &stats;
  }
  return nullptr;
}

void PhaseStatsRegistry::Clear() {
  for (auto& [name, stats] : stats_) stats.ResetValues();
  stats_.clear();
}

std::string PhaseStatsRegistry::ToString() const {
  std::ostringstream os;
  os << "phase                 ticks   total(s)  ms/tick       rows     probes"
        "  workers  maxw-ms/tick   %time\n";
  double total_seconds = 0.0;
  for (const auto& [name, s] : stats_) total_seconds += s.seconds();
  for (const auto& [name, s] : stats_) {
    char line[200];
    const int64_t invocations = s.invocations();
    const double seconds = s.seconds();
    double per_tick =
        invocations > 0 ? seconds * 1e3 / static_cast<double>(invocations)
                        : 0.0;
    double max_worker_ms =
        invocations > 0 ? static_cast<double>(s.max_worker_ns()) * 1e-6 /
                              static_cast<double>(invocations)
                        : 0.0;
    // Guard the share-of-total divide: a run whose phases all finished in
    // sub-tick-resolution time has total_seconds == 0, which would print
    // nan for every row.
    double pct = total_seconds > 0.0 ? 100.0 * seconds / total_seconds : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-20s %6lld %10.4f %8.3f %10lld %10lld %8lld %13.3f %7.1f\n",
                  name.c_str(), static_cast<long long>(invocations), seconds,
                  per_tick, static_cast<long long>(s.rows_scanned()),
                  static_cast<long long>(s.index_probes()),
                  static_cast<long long>(s.workers()), max_worker_ms, pct);
    os << line;
  }
  return os.str();
}

Status IndexBuildPhase::Run(TickContext* ctx) {
  exec::ParallelStats pstats;
  for (auto& session : ctx->sim->sessions()) {
    if (session->provider == nullptr) continue;
    SGL_RETURN_NOT_OK(session->provider->BuildIndexes(*ctx->table, *ctx->rnd,
                                                      ctx->pool, &pstats));
    ctx->stats->AddRowsScanned(ctx->table->NumRows());
  }
  ctx->stats->NoteWorkers(pstats.workers);
  ctx->stats->AddMaxWorkerNs(pstats.max_worker_ns);
  return Status::OK();
}

namespace {
/// Rows per decision chunk at minimum: below this, thread fan-out costs
/// more than the scripts it parallelizes (each row runs a whole script,
/// so even 8 rows outweigh a chunk dispatch). Chunking never affects
/// results (shards replay in chunk order), only scheduling.
constexpr int64_t kDecisionGrain = 8;
}  // namespace

Status DecisionActionPhase::RunRange(TickContext* ctx, RowId lo, RowId hi,
                                     EffectSink* sink, int32_t shard) {
  Simulation* sim = ctx->sim;
  vm::BatchExecutor* executor = executors_[shard].get();
  RowId r = lo;
  while (r < hi) {
    SGL_ASSIGN_OR_RETURN(const ScriptSession* session, sim->SessionForRow(r));
    // Extend the run while consecutive rows dispatch to the same session;
    // a dispatch error breaks the run here and surfaces on the next
    // iteration, after this run's effects — the interpreter's order.
    RowId end = r + 1;
    while (end < hi) {
      auto next = sim->SessionForRow(end);
      if (!next.ok() || next.value() != session) break;
      ++end;
    }
    if (session->compiled != nullptr) {
      SGL_RETURN_NOT_OK(executor->Run(*session->compiled, *session->interp,
                                      *ctx->table, r, end, *ctx->rnd, sink,
                                      shard));
    } else {
      for (RowId u = r; u < end; ++u) {
        SGL_RETURN_NOT_OK(
            session->interp->RunUnit(*ctx->table, u, *ctx->rnd, sink, shard));
      }
    }
    r = end;
  }
  return Status::OK();
}

Status DecisionActionPhase::Run(TickContext* ctx) {
  Simulation* sim = ctx->sim;
  const int64_t probes_before = TotalProbes(sim);
  const int32_t n = ctx->table->NumRows();
  exec::ThreadPool* pool = ctx->pool;
  const int32_t chunks =
      pool == nullptr ? (n > 0 ? 1 : 0) : pool->NumChunks(n, kDecisionGrain);

  if (chunks <= 1) {
    // Sequential: stream effects straight into the tick buffer (shard 0).
    EnsureExecutors(1);
    SetExecutorTracers(ctx->tracer);
    SGL_RETURN_NOT_OK(RunRange(ctx, 0, n, ctx->buffer, 0));
    if (n > 0) ctx->stats->NoteWorkers(1);
  } else {
    // Parallel: chunk c evaluates its contiguous row range [lo, hi) in
    // ascending order into its own effect-log shard; replaying shards in
    // chunk order afterwards reproduces the sequential Accumulate call
    // sequence exactly (see sharded_effect_buffer.h), so any thread count
    // yields a bit-identical tick. A batch never crosses a chunk boundary,
    // so compiled and interpreted runs chunk identically.
    sharded_.EnsureShards(chunks);
    sharded_.ClearAll();  // on entry: robust even if a prior tick errored
    EnsureExecutors(chunks);
    SetExecutorTracers(ctx->tracer);
    exec::ShardedEffectBuffer& sharded = sharded_;
    exec::ParallelStats pstats;
    SGL_RETURN_NOT_OK(pool->ParallelFor(
        n, kDecisionGrain,
        [&](int32_t chunk, int64_t lo, int64_t hi) -> Status {
          // Worker span on the chunk's own track and shard sink: chunk c
          // is evaluated by exactly one worker, so shard c never races.
          obs::SpanScope span(ctx->tracer, "chunk", 1 + chunk, chunk);
          if (ctx->tracer != nullptr) {
            char args[96];
            std::snprintf(args, sizeof(args),
                          "{\"chunk\":%d,\"row_lo\":%lld,\"rows\":%lld}",
                          chunk, static_cast<long long>(lo),
                          static_cast<long long>(hi - lo));
            span.set_args_json(args);
          }
          return RunRange(ctx, static_cast<RowId>(lo), static_cast<RowId>(hi),
                          sharded.shard(chunk), chunk);
        },
        &pstats));
    sharded.MergeInto(ctx->buffer);
    ctx->stats->NoteWorkers(pstats.workers);
    ctx->stats->AddMaxWorkerNs(pstats.max_worker_ns);
  }

  ctx->stats->AddRowsScanned(n);
  ctx->stats->AddIndexProbes(TotalProbes(sim) - probes_before);
  return Status::OK();
}

Status DeferredIndexPhase::Run(TickContext* ctx) {
  for (auto& session : ctx->sim->sessions()) {
    if (session->sink == nullptr) continue;
    SGL_RETURN_NOT_OK(
        session->sink->FlushDeferred(*ctx->table, *ctx->rnd, ctx->buffer));
  }
  return Status::OK();
}

Status ApplyPhase::Run(TickContext* ctx) {
  ctx->buffer->ApplyTo(ctx->table);
  for (const ApplyEffectsHook& hook : ctx->sim->apply_hooks()) {
    SGL_RETURN_NOT_OK(hook(ctx->table, *ctx->buffer, *ctx->rnd));
  }
  ctx->stats->AddRowsScanned(ctx->table->NumRows());
  return Status::OK();
}

Status MechanicsPhase::Run(TickContext* ctx) {
  for (const EndTickHook& hook : ctx->sim->end_tick_hooks()) {
    SGL_RETURN_NOT_OK(hook(ctx->table, *ctx->rnd));
  }
  return Status::OK();
}

Status MovementPhase::Run(TickContext* ctx) {
  EnvironmentTable& table = *ctx->table;
  const TickRandom& rnd = *ctx->rnd;
  const int32_t n = table.NumRows();
  ctx->stats->AddRowsScanned(n);

  // Occupancy of every unit's current cell.
  std::unordered_set<int64_t> occupied;
  if (collisions_) {
    occupied.reserve(static_cast<size_t>(n) * 2);
    for (RowId r = 0; r < n; ++r) {
      occupied.insert(CellKey(static_cast<int64_t>(table.Get(r, posx_)),
                              static_cast<int64_t>(table.Get(r, posy_))));
    }
  }

  // Units move in random order (deterministic Fisher–Yates from the tick
  // randomness, so the naive and indexed engines shuffle identically).
  std::vector<RowId> order(n);
  for (RowId r = 0; r < n; ++r) order[r] = r;
  for (int32_t i = n - 1; i > 0; --i) {
    int64_t j = rnd.DrawBounded(-1, i, i + 1);
    std::swap(order[i], order[j]);
  }

  const double step = step_per_tick_;
  for (RowId r : order) {
    double mx = table.Get(r, move_x_);
    double my = table.Get(r, move_y_);
    if (mx == 0.0 && my == 0.0) continue;
    // Example 4.1's norm: advance a full step in the intent direction
    // (shorter intents move at most their own length).
    double len = std::sqrt(mx * mx + my * my);
    double scale = std::min(1.0, step / len);
    int64_t cx = static_cast<int64_t>(table.Get(r, posx_));
    int64_t cy = static_cast<int64_t>(table.Get(r, posy_));
    int64_t tx = cx + static_cast<int64_t>(std::llround(mx * scale));
    int64_t ty = cy + static_cast<int64_t>(std::llround(my * scale));
    tx = std::clamp<int64_t>(tx, 0, grid_width_ - 1);
    ty = std::clamp<int64_t>(ty, 0, grid_height_ - 1);
    if (tx == cx && ty == cy) continue;

    auto try_move = [&](int64_t nx, int64_t ny) {
      if (nx < 0 || nx >= grid_width_ || ny < 0 || ny >= grid_height_) {
        return false;
      }
      if (nx == cx && ny == cy) return false;
      if (collisions_ && occupied.count(CellKey(nx, ny)) > 0) {
        return false;
      }
      if (collisions_) {
        occupied.erase(CellKey(cx, cy));
        occupied.insert(CellKey(nx, ny));
      }
      table.Set(r, posx_, static_cast<double>(nx));
      table.Set(r, posy_, static_cast<double>(ny));
      return true;
    };

    if (try_move(tx, ty)) continue;
    // Very simple pathfinding: try the 8 neighbours of the blocked target,
    // closest to the current position first (deterministic ordering).
    struct Alt {
      int64_t x, y;
      int64_t d2;
    };
    std::vector<Alt> alts;
    alts.reserve(8);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        if (dx == 0 && dy == 0) continue;
        int64_t ax = tx + dx, ay = ty + dy;
        int64_t ddx = ax - cx, ddy = ay - cy;
        alts.push_back(Alt{ax, ay, ddx * ddx + ddy * ddy});
      }
    }
    std::sort(alts.begin(), alts.end(), [](const Alt& a, const Alt& b) {
      if (a.d2 != b.d2) return a.d2 < b.d2;
      if (a.x != b.x) return a.x < b.x;
      return a.y < b.y;
    });
    for (const Alt& alt : alts) {
      if (try_move(alt.x, alt.y)) break;
    }
  }
  return Status::OK();
}

}  // namespace sgl
