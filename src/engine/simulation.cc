#include "engine/simulation.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "algebra/plan.h"
#include "opt/adaptive_provider.h"
#include "storage/world_store.h"
#include "util/timer.h"
#include "vm/compiler.h"

namespace sgl {

const char* EvaluatorModeName(EvaluatorMode mode) {
  switch (mode) {
    case EvaluatorMode::kNaive: return "naive";
    case EvaluatorMode::kIndexed: return "indexed";
    case EvaluatorMode::kAdaptive: return "adaptive";
  }
  return "?";
}

Result<EvaluatorMode> ParseEvaluatorMode(const std::string& name) {
  if (name == "naive") return EvaluatorMode::kNaive;
  if (name == "indexed") return EvaluatorMode::kIndexed;
  if (name == "adaptive") return EvaluatorMode::kAdaptive;
  return Status::Invalid("unknown evaluator mode '", name,
                         "' (expected naive, indexed, or adaptive)");
}

Status SimulationConfig::Validate() const {
  if (threads < 0) {
    return Status::Invalid(
        "SimulationConfig: threads must be >= 0 (0 = auto-detect), got ",
        threads);
  }
  // Movement is keyed off move_x_attr: empty disables the phase (the
  // historical idiom leaves move_y_attr at its default in that case).
  if (!move_x_attr.empty()) {
    if (move_y_attr.empty()) {
      return Status::Invalid(
          "SimulationConfig: move_x_attr is set but move_y_attr is empty "
          "(movement needs both; clear move_x_attr to disable it)");
    }
    if (grid_width < 1 || grid_height < 1) {
      return Status::Invalid(
          "SimulationConfig: grid dimensions must be >= 1, got ", grid_width,
          " x ", grid_height);
    }
    if (step_per_tick < 0.0) {
      return Status::Invalid(
          "SimulationConfig: step_per_tick must be >= 0, got ", step_per_tick);
    }
  }
  SGL_RETURN_NOT_OK(artifacts.Validate());
  SGL_RETURN_NOT_OK(storage.Validate());
  return Status::OK();
}

Status ArtifactConfig::Validate() const {
  if (flight_recorder_ticks < 0) {
    return Status::Invalid(
        "SimulationConfig: artifacts.flight_recorder_ticks must be >= 0 "
        "(0 = off), got ",
        flight_recorder_ticks);
  }
  return Status::OK();
}

namespace {

/// The physical-plan block of one session, shared by Explain and
/// DescribePlan.
void DescribeSessionPlan(const ScriptSession& session, std::ostream& os) {
  if (session.provider != nullptr) {
    os << session.provider->DescribePlan();
  } else {
    os << "Naive evaluator: every aggregate and action scans E.\n";
  }
  if (session.sink != nullptr) os << session.sink->DescribePlan();
}

/// The compiled-evaluation block of one session: disassembly plus static
/// and executed opcode counts, or the reason the script is interpreted.
void DescribeBytecode(const ScriptSession& session, std::ostream& os) {
  os << "-- Bytecode --\n";
  if (session.compiled == nullptr) {
    os << "compiled: off";
    if (!session.compile_note.empty()) {
      os << " (" << session.compile_note << ")";
    }
    os << "\n";
    return;
  }
  const vm::CompiledProgram& prog = *session.compiled;
  os << "compiled: on: " << prog.code.size() << " instrs ("
     << prog.num_hoisted << " hoisted consts, " << prog.num_batch_ops
     << " batch, " << prog.num_scalar_ops << " scalar), " << prog.num_regs
     << " regs, " << prog.num_masks << " masks\n";
  if (!prog.agg_scans.empty()) {
    int32_t vectorized = 0;
    for (const auto& scan : prog.agg_scans) {
      if (scan != nullptr) ++vectorized;
    }
    os << "aggregates: " << vectorized << " vectorized scan(s), "
       << prog.agg_scans.size() - vectorized << " interpreted probe(s)\n";
  }
  if (!prog.action_scans.empty()) {
    int32_t vectorized = 0;
    for (const auto& scan : prog.action_scans) {
      if (scan != nullptr) ++vectorized;
    }
    os << "actions: " << vectorized << " vectorized update scan(s), "
       << prog.action_scans.size() - vectorized << " interpreted exec(s)\n";
  }
  os << prog.Disassemble();
  const int64_t batches = prog.batches->value();
  if (batches > 0) {
    os << "executed: " << batches << " batches, "
       << prog.batch_dispatches->value() << " batch dispatches, "
       << prog.scalar_lane_ops->value() << " scalar lane-ops, "
       << prog.agg_scan_probes->value() << " vectorized agg probes, "
       << prog.action_scan_execs->value() << " vectorized action execs, "
       << prog.interp_fallbacks->value() << " interpreter fallbacks\n";
  }
}

}  // namespace

// --------------------------------------------------------------- Simulation

Simulation::Simulation(EnvironmentTable table) : table_(std::move(table)) {}

Simulation::~Simulation() {
  // Persist the trace where the config asked for it, even if the caller
  // never called WriteTrace explicitly (best-effort: a destructor cannot
  // surface the status).
  if (tracer_ != nullptr && !config_.artifacts.trace_path.empty()) {
    (void)tracer_->WriteJson(config_.artifacts.trace_path);
  }
}

Status Simulation::Tick() {
  TickRandom rnd(config_.seed, static_cast<uint64_t>(tick_count_));

  obs::SpanScope tick_span(tracer_.get(), "tick", 0, 0);
  if (tracer_ != nullptr) {
    char args[48];
    std::snprintf(args, sizeof(args), "{\"tick\":%lld}",
                  static_cast<long long>(tick_count_));
    tick_span.set_args_json(args);
  }
  Timer tick_timer;

  // Drain externally injected actions first, before any phase observes
  // the table: the inlet's sequence order is the only order, so a live
  // run and a replay of its inlet log see identical pre-tick state. The
  // writes go through EnvironmentTable::Set and therefore land in the
  // change log that adaptive indexes consume.
  serve::InletDrainStats drain;
  SGL_RETURN_NOT_OK(inlet_.DrainInto(&table_, tick_count_, &drain));
  if (drain.applied > 0) inlet_applied_->Add(drain.applied);
  if (drain.dropped > 0) inlet_dropped_->Add(drain.dropped);

  // Tick prologue: initialize the auxiliary (effect) attributes and
  // snapshot them as the base contribution of the incremental ⊕. The
  // sharing layer's memo tables only describe the frozen state of one
  // tick, so they reset here too (and demotions take effect).
  table_.ResetEffects();
  buffer_.Begin(table_);
  if (sharing_ != nullptr) sharing_->BeginTick();

  TickContext ctx;
  ctx.sim = this;
  ctx.table = &table_;
  ctx.buffer = &buffer_;
  ctx.rnd = &rnd;
  ctx.pool = pool_.get();
  ctx.tick = tick_count_;
  ctx.tracer = tracer_.get();
  for (const std::unique_ptr<TickPhase>& phase : pipeline_) {
    PhaseStats& slot = stats_.Slot(phase->name());
    ctx.stats = &slot;
    Status st;
    {
      obs::SpanScope phase_span(tracer_.get(), phase->name().c_str(), 0, 0);
      Timer timer;
      st = phase->Run(&ctx);
      slot.AddNanos(timer.Nanos());
    }
    slot.AddInvocation();
    if (!st.ok()) {
      if (tracer_ != nullptr) {
        tracer_->Instant("error", 0, 0,
                         "{\"phase\":\"" + obs::JsonEscape(phase->name()) +
                             "\",\"status\":\"" +
                             obs::JsonEscape(st.ToString()) + "\"}");
      }
      if (recorder_ != nullptr) {
        (void)recorder_->Dump(config_.artifacts.flight_recorder_path,
                              "tick " + std::to_string(tick_count_) +
                                  " failed in phase '" + phase->name() +
                                  "': " + st.ToString());
      }
      return st;
    }
  }
  // Durable storage: harvest the tick's delta records into the WAL and
  // sync the page cache (possibly auto-checkpointing) before the tick
  // counter advances — a crash after this point recovers to the state
  // the tick just produced, a crash before it to the previous tick.
  if (store_ != nullptr) {
    obs::SpanScope commit_span(tracer_.get(), "storage.commit", 0, 0);
    SGL_RETURN_NOT_OK(store_->CommitTick(table_, tick_count_));
    table_.ClearStorageChanges();
  }
  ticks_counter_->Add(1);
  tick_ns_hist_->Record(tick_timer.Nanos());
  if (recorder_ != nullptr) {
    recorder_->RecordTick(tick_count_, tick_timer.Nanos(), table_.NumRows());
  }
  if (!config_.artifacts.metrics_path.empty()) {
    SGL_RETURN_NOT_OK(AppendMetricsLine());
  }
  ++tick_count_;
  return Status::OK();
}

int64_t Simulation::shared_hits() const {
  return sharing_ != nullptr ? sharing_->shared_hits() : 0;
}

int64_t Simulation::memo_entries() const {
  return sharing_ != nullptr ? sharing_->memo_entries() : 0;
}

Status Simulation::WriteTrace(const std::string& path) const {
  if (tracer_ == nullptr) {
    return Status::Invalid(
        "tracing is off (set SimulationConfig::artifacts.trace_path)");
  }
  return tracer_->WriteJson(path);
}

Status Simulation::DumpFlightRecorder(const std::string& path,
                                      const std::string& reason) const {
  if (recorder_ == nullptr) {
    return Status::Invalid(
        "flight recorder is off "
        "(set SimulationConfig::artifacts.flight_recorder_ticks)");
  }
  return recorder_->Dump(path, reason);
}

Status Simulation::DumpArtifacts(const std::string& dir) {
  if (dir.empty()) {
    return Status::Invalid("DumpArtifacts: directory must not be empty");
  }
  SGL_RETURN_NOT_OK(storage::MakeDirs(dir));
  if (tracer_ != nullptr) {
    SGL_RETURN_NOT_OK(tracer_->WriteJson(dir + "/trace.json"));
  }
  const std::string metrics_file = dir + "/metrics.json";
  std::ofstream out(metrics_file, std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open ", metrics_file);
  }
  out << metrics_.ToJson() << "\n";
  out.close();
  if (!out.good()) {
    return Status::Internal("failed writing ", metrics_file);
  }
  if (recorder_ != nullptr) {
    SGL_RETURN_NOT_OK(
        recorder_->Dump(dir + "/flight_record.json", "DumpArtifacts"));
  }
  return Status::OK();
}

Status Simulation::AppendMetricsLine() const {
  std::ofstream out(config_.artifacts.metrics_path,
                    metrics_file_started_ ? std::ios::app : std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open metrics output file: ",
                            config_.artifacts.metrics_path);
  }
  metrics_file_started_ = true;
  out << "{\"tick\":" << tick_count_ << ",\"metrics\":" << metrics_.ToJson()
      << "}\n";
  out.close();
  if (!out.good()) {
    return Status::Internal("failed writing metrics output file: ",
                            config_.artifacts.metrics_path);
  }
  return Status::OK();
}

Status Simulation::Run(int64_t ticks) {
  for (int64_t i = 0; i < ticks; ++i) {
    SGL_RETURN_NOT_OK(Tick());
  }
  return Status::OK();
}

std::vector<std::string> Simulation::PhaseNames() const {
  std::vector<std::string> names;
  names.reserve(pipeline_.size());
  for (const auto& phase : pipeline_) names.push_back(phase->name());
  return names;
}

Result<const ScriptSession*> Simulation::SessionForRow(RowId row) const {
  if (dispatch_attr_ == Schema::kInvalidAttr) {
    return sessions_[default_session_].get();
  }
  double value = table_.Get(row, dispatch_attr_);
  auto it = dispatch_map_.find(value);
  if (it != dispatch_map_.end()) return sessions_[it->second].get();
  if (default_session_ >= 0) return sessions_[default_session_].get();
  return Status::ExecutionError(
      "no script registered for ", table_.schema().attr(dispatch_attr_).name,
      " = ", value, " (unit key ", table_.KeyAt(row), ")");
}

std::string Simulation::Explain() const {
  std::ostringstream os;
  if (!name_.empty()) os << "simulation: " << name_ << "\n";
  os << "execution: " << threads_ << (threads_ == 1 ? " thread" : " threads")
     << (pool_ != nullptr ? " (parallel tick pipeline, deterministic)" : "")
     << ", evaluator: " << EvaluatorModeName(config_.eval_mode)
     << ", sharing: " << (sharing_ != nullptr ? "on" : "off")
     << ", compiled: " << (config_.compiled ? "on" : "off") << "\n\n";
  for (const auto& session : sessions_) {
    os << "== script '" << session->name << "'";
    if (dispatch_attr_ != Schema::kInvalidAttr) {
      if (session->has_dispatch_value) {
        os << " (dispatched when " << table_.schema().attr(dispatch_attr_).name
           << " = " << session->dispatch_value << ")";
      } else {
        os << " (default)";
      }
    }
    os << " ==\n";

    auto logical = TranslateScript(session->script);
    if (logical.ok()) {
      auto optimized = OptimizePlan(*logical);
      if (optimized.ok()) {
        // Attach to every aggregate operator the physical strategy the
        // evaluator chose for it (and, in adaptive mode, the cost
        // decision behind the choice).
        PlanAnnotator annotate;
        if (session->provider != nullptr) {
          const IndexedAggregateProvider* provider = session->provider.get();
          annotate = [provider](const PlanNode& n) -> std::string {
            if (n.op != PlanOp::kExtendAgg || n.expr == nullptr ||
                !n.expr->is_aggregate || n.expr->call_id < 0) {
              return "";
            }
            return provider->DescribeAggregatePhysical(n.expr->call_id);
          };
        }
        os << "logical plan: " << logical->NumNodes() << " operators, "
           << logical->NumAggregateNodes() << " aggregate extensions -> "
           << optimized->NumNodes() << " operators, "
           << optimized->NumAggregateNodes() << " aggregate extensions, "
           << optimized->NumSharedSignatures() << " shared signatures\n"
           << optimized->ToString(annotate);
      } else {
        os << "logical plan: " << optimized.status().ToString() << "\n";
      }
    } else {
      os << "logical plan: " << logical.status().ToString() << "\n";
    }

    DescribeSessionPlan(*session, os);
    DescribeBytecode(*session, os);
    os << "\n";
  }
  if (sharing_ != nullptr) os << sharing_->Describe();
  return os.str();
}

std::string Simulation::DescribePlan() const {
  std::ostringstream os;
  for (const auto& session : sessions_) {
    if (sessions_.size() > 1) os << "== script '" << session->name << "' ==\n";
    DescribeSessionPlan(*session, os);
  }
  return os.str();
}

Status Simulation::InstallWorld(EnvironmentTable table, int64_t tick) {
  table_ = std::move(table);
  tick_count_ = tick;
  if (store_ != nullptr) {
    // Clone() strips the listener, so every install must re-attach it
    // (which opens an empty storage window), then commit the store to
    // this timeline: checkpointing here truncates any WAL suffix beyond
    // `tick` (time travel rewrites history from the restored point) and
    // rewrites cached pages.
    table_.SetDeltaListener(store_.get());
    store_->MarkWorldInstalled();
    SGL_RETURN_NOT_OK(store_->Checkpoint(table_, tick_count_));
  }
  return Status::OK();
}

namespace {

/// The store behind a checkpoint directory that is not the configured
/// storage path: the default StorageConfig but for `page_size`, no
/// metrics, closed on return.
Result<std::unique_ptr<storage::WorldStore>> OpenStoreAt(
    const std::string& dir, int32_t page_size) {
  StorageConfig config;
  config.path = dir;
  config.page_size = page_size;
  return storage::WorldStore::Open(config, /*metrics=*/nullptr);
}

}  // namespace

Status Simulation::Checkpoint(const std::string& dir) {
  if (dir.empty()) {
    return Status::Invalid("Checkpoint: directory must not be empty");
  }
  if (store_ != nullptr && dir == config_.storage.path) {
    SGL_RETURN_NOT_OK(store_->Checkpoint(table_, tick_count_));
    table_.ClearStorageChanges();  // the published image holds them
  } else {
    SGL_ASSIGN_OR_RETURN(auto store,
                         OpenStoreAt(dir, StorageConfig().page_size));
    SGL_RETURN_NOT_OK(store->Checkpoint(table_, tick_count_));
  }
  return inlet_.SaveLog(dir + "/inlet.sgl");
}

Status Simulation::RestoreFrom(const std::string& dir, int64_t tick) {
  if (dir.empty()) {
    return Status::Invalid("RestoreFrom: directory must not be empty");
  }
  storage::WorldStore* store = store_.get();
  std::unique_ptr<storage::WorldStore> foreign;
  if (store == nullptr || dir != config_.storage.path) {
    // Opening a store creates its files, so a directory without a world
    // is refused first and left as it was.
    if (!storage::WorldStore::HasWorld(dir)) {
      if (::access((dir + "/snapshot.sgl").c_str(), F_OK) == 0) {
        return Status::Invalid("RestoreFrom: ", dir,
                               " holds only a snapshot.sgl, a retired "
                               "checkpoint format this build cannot read");
      }
      return Status::NotFound("RestoreFrom: no checkpoint in ", dir);
    }
    // The world there may have been written with any page size; its
    // manifest records which.
    SGL_ASSIGN_OR_RETURN(int32_t page_size,
                         storage::WorldStore::StoredPageSize(dir));
    SGL_ASSIGN_OR_RETURN(foreign, OpenStoreAt(dir, page_size));
    store = foreign.get();
  }
  storage::RecoveredWorld world;
  if (tick < 0) {
    SGL_ASSIGN_OR_RETURN(world, store->Recover());
  } else {
    SGL_ASSIGN_OR_RETURN(world, store->Materialize(tick));
  }
  if (!(world.table.schema() == table_.schema())) {
    return Status::Invalid(
        "stored world schema does not match the simulation's table schema");
  }
  SGL_RETURN_NOT_OK(InstallWorld(std::move(world.table), world.tick));
  return inlet_.RestoreLog(dir + "/inlet.sgl", tick_count_);
}

// ------------------------------------------------------- SimulationBuilder

SimulationBuilder::SimulationBuilder() = default;
SimulationBuilder::~SimulationBuilder() = default;

SimulationBuilder& SimulationBuilder::SetTable(EnvironmentTable table) {
  table_ = std::move(table);
  has_table_ = true;
  return *this;
}

SimulationBuilder& SimulationBuilder::SetConfig(SimulationConfig config) {
  config_ = std::move(config);
  return *this;
}

SimulationBuilder& SimulationBuilder::SetName(std::string name) {
  name_ = std::move(name);
  return *this;
}

SimulationBuilder& SimulationBuilder::Apply(
    const std::function<Status(SimulationBuilder&)>& hook) {
  Status st = hook(*this);
  if (!st.ok() && deferred_error_.ok()) deferred_error_ = std::move(st);
  return *this;
}

SimulationBuilder& SimulationBuilder::Threads(int32_t n) {
  config_.threads = n;
  return *this;
}

SimulationBuilder& SimulationBuilder::Executor(
    std::shared_ptr<exec::ThreadPool> pool) {
  executor_ = std::move(pool);
  return *this;
}

SimulationBuilder& SimulationBuilder::AddScript(std::string name,
                                                Script script) {
  auto session = std::make_unique<ScriptSession>();
  session->name = std::move(name);
  session->script = std::move(script);
  sessions_.push_back(std::move(session));
  return *this;
}

SimulationBuilder& SimulationBuilder::AddScript(std::string name, Script script,
                                                double dispatch_value) {
  AddScript(std::move(name), std::move(script));
  sessions_.back()->has_dispatch_value = true;
  sessions_.back()->dispatch_value = dispatch_value;
  return *this;
}

SimulationBuilder& SimulationBuilder::DispatchBy(std::string attr_name) {
  dispatch_attr_name_ = std::move(attr_name);
  return *this;
}

SimulationBuilder& SimulationBuilder::SetMechanics(
    std::unique_ptr<GameMechanics> mechanics) {
  mechanics_ = std::move(mechanics);
  return *this;
}

SimulationBuilder& SimulationBuilder::OnApplyEffects(ApplyEffectsHook hook) {
  apply_hooks_.push_back(std::move(hook));
  return *this;
}

SimulationBuilder& SimulationBuilder::OnEndTick(EndTickHook hook) {
  end_tick_hooks_.push_back(std::move(hook));
  return *this;
}

SimulationBuilder& SimulationBuilder::AddPhase(
    std::unique_ptr<TickPhase> phase) {
  phase_edits_.push_back(
      PhaseEdit{PhaseEdit::Kind::kAppend, "", std::move(phase)});
  return *this;
}

SimulationBuilder& SimulationBuilder::InsertPhaseBefore(
    std::string anchor, std::unique_ptr<TickPhase> phase) {
  phase_edits_.push_back(PhaseEdit{PhaseEdit::Kind::kInsertBefore,
                                   std::move(anchor), std::move(phase)});
  return *this;
}

SimulationBuilder& SimulationBuilder::InsertPhaseAfter(
    std::string anchor, std::unique_ptr<TickPhase> phase) {
  phase_edits_.push_back(PhaseEdit{PhaseEdit::Kind::kInsertAfter,
                                   std::move(anchor), std::move(phase)});
  return *this;
}

SimulationBuilder& SimulationBuilder::DisablePhase(std::string name) {
  disabled_phases_.push_back(std::move(name));
  return *this;
}

SimulationBuilder& SimulationBuilder::SetPhaseOrder(
    std::vector<std::string> order) {
  phase_order_ = std::move(order);
  return *this;
}

Result<std::unique_ptr<Simulation>> SimulationBuilder::Build() {
  if (!deferred_error_.ok()) return deferred_error_;
  SGL_RETURN_NOT_OK(config_.Validate());
  if (!has_table_) {
    return Status::Invalid("SimulationBuilder: SetTable was never called");
  }
  if (sessions_.empty()) {
    return Status::Invalid("SimulationBuilder: no script registered");
  }

  std::unique_ptr<Simulation> sim(new Simulation(std::move(table_)));
  sim->name_ = std::move(name_);
  sim->config_ = config_;
  const Schema& schema = sim->table_.schema();

  // --- worker threads ----------------------------------------------------
  // An injected shared executor (the serving layer's pool) wins over the
  // config thread count; either way the resolved count is surfaced and
  // results are bit-identical — pool chunking depends only on the size.
  if (executor_ != nullptr) {
    sim->threads_ = executor_->num_threads();
    sim->pool_ = std::move(executor_);
  } else {
    sim->threads_ = config_.threads == 0 ? exec::ThreadPool::HardwareThreads()
                                         : config_.threads;
    if (sim->threads_ > 1) {
      sim->pool_ = std::make_shared<exec::ThreadPool>(sim->threads_);
    }
  }
  sim->config_.threads = sim->threads_;  // surface the resolved count

  // --- scripts and dispatch ---------------------------------------------
  bool any_dispatch_value = false;
  std::unordered_set<std::string> session_names;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    ScriptSession& session = *sessions_[i];
    if (!session_names.insert(session.name).second) {
      return Status::AlreadyExists("duplicate script name '", session.name,
                                   "'");
    }
    if (session.script.main_index < 0) {
      return Status::PlanError("script '", session.name,
                               "' has no main function");
    }
    if (!(session.script.schema == schema)) {
      return Status::Invalid("script '", session.name,
                             "' was compiled against a different schema than "
                             "the simulation's table");
    }
    if (session.has_dispatch_value) {
      any_dispatch_value = true;
    } else {
      if (sim->default_session_ >= 0) {
        return Status::Invalid(
            "more than one default script (without a dispatch value): '",
            sessions_[sim->default_session_]->name, "' and '", session.name,
            "'");
      }
      sim->default_session_ = static_cast<int32_t>(i);
    }

    session.interp = std::make_unique<Interpreter>(session.script);
    if (config_.eval_mode != EvaluatorMode::kNaive) {
      if (config_.eval_mode == EvaluatorMode::kAdaptive) {
        SGL_ASSIGN_OR_RETURN(
            auto adaptive,
            AdaptiveAggregateProvider::Create(session.script, *session.interp));
        session.provider = std::move(adaptive);
      } else {
        SGL_ASSIGN_OR_RETURN(
            session.provider,
            IndexedAggregateProvider::Create(session.script, *session.interp));
      }
      session.provider->set_num_shards(sim->threads_);
      session.interp->set_aggregate_provider(session.provider.get());
      SGL_ASSIGN_OR_RETURN(
          session.sink,
          IndexedActionSink::Create(session.script, *session.interp));
      session.sink->set_num_shards(sim->threads_);
      session.interp->set_action_sink(session.sink.get());
    }
    if (config_.sharing) {
      // The sharing decorator intercepts the interpreter's aggregate
      // calls: memo hits return immediately, misses flow to the physical
      // provider (or the reference scan under the naive evaluator). One
      // context serves every session, so structurally identical
      // aggregates dedup across scripts.
      if (sim->sharing_ == nullptr) {
        sim->sharing_ = std::make_unique<SharingContext>();
      }
      SGL_ASSIGN_OR_RETURN(
          session.sharing,
          SharingAggregateProvider::Create(
              session.script, *session.interp, session.provider.get(),
              sim->sharing_.get(), session.name));
      // All-per-unit scripts (every probe depends on the probing unit)
      // keep the direct path: the decorator would only add a forwarding
      // hop per call. Classifications stay registered for EXPLAIN.
      if (session.sharing->any_shared()) {
        session.interp->set_aggregate_provider(session.sharing.get());
      }
    }
    if (config_.compiled) {
      // Lower the decision logic to batch bytecode (src/vm/). The
      // compiler is conservative: a declined script simply keeps the
      // interpreter, with the reason surfaced by Explain(). When a
      // provider answers the aggregates, each call site also computes
      // its probe side, handed to the provider as batch columns.
      std::vector<AggregateSignature> signatures;
      if (session.interp->aggregate_provider() != nullptr) {
        for (int32_t a = 0; a < static_cast<int32_t>(
                                    session.script.program.aggregates.size());
             ++a) {
          SGL_ASSIGN_OR_RETURN(AggregateSignature sig,
                               ExtractSignature(session.script, a));
          signatures.push_back(std::move(sig));
        }
      }
      auto compiled = vm::CompileProgram(session.script, signatures);
      if (compiled.ok()) {
        session.compiled = compiled.MoveValue();
      } else {
        session.compile_note = compiled.status().message();
      }
    } else {
      session.compile_note = "disabled by config";
    }

    // Rebind the session's counters into the simulation's registry (all
    // still zero — no tick has run). Behind an active sharing decorator
    // the physical provider only sees memo misses, and which probing unit
    // misses first races across shards, so those counts become
    // execution-dependent.
    const uint32_t provider_flags =
        session.sharing != nullptr && session.sharing->any_shared()
            ? obs::kMetricExecDependent
            : obs::kMetricNone;
    if (session.provider != nullptr) {
      session.provider->BindMetrics(&sim->metrics_,
                                    "script." + session.name + ".agg.",
                                    provider_flags);
    }
    if (session.compiled != nullptr) {
      session.compiled->BindMetrics(&sim->metrics_,
                                    "script." + session.name + ".vm.",
                                    obs::kMetricNone);
    }
  }
  if (sim->sharing_ != nullptr) sim->sharing_->set_num_shards(sim->threads_);
  if (any_dispatch_value) {
    if (dispatch_attr_name_.empty()) {
      return Status::Invalid(
          "scripts with dispatch values require DispatchBy(attr)");
    }
    SGL_ASSIGN_OR_RETURN(sim->dispatch_attr_,
                         schema.Require(dispatch_attr_name_));
    for (size_t i = 0; i < sessions_.size(); ++i) {
      if (!sessions_[i]->has_dispatch_value) continue;
      auto [it, inserted] = sim->dispatch_map_.emplace(
          sessions_[i]->dispatch_value, static_cast<int32_t>(i));
      if (!inserted) {
        return Status::AlreadyExists(
            "scripts '", sessions_[it->second]->name, "' and '",
            sessions_[i]->name, "' share dispatch value ",
            sessions_[i]->dispatch_value);
      }
    }
  } else if (sessions_.size() > 1) {
    return Status::Invalid(
        "multiple scripts require dispatch values and DispatchBy(attr)");
  }
  sim->sessions_ = std::move(sessions_);

  // --- observability -----------------------------------------------------
  // One registry serves every subsystem; phase slots bind lazily on first
  // Tick. With sharing on, the probe totals the decision phase folds in
  // come from decorated providers, so they inherit the same
  // execution-dependence as the provider counters.
  if (sim->sharing_ != nullptr) {
    sim->sharing_->BindMetrics(&sim->metrics_, "sharing.");
  }
  sim->stats_.Attach(&sim->metrics_, config_.sharing
                                         ? obs::kMetricExecDependent
                                         : obs::kMetricNone);
  sim->ticks_counter_ = sim->metrics_.GetCounter("engine.ticks");
  sim->inlet_applied_ = sim->metrics_.GetCounter("inlet.applied");
  sim->inlet_dropped_ = sim->metrics_.GetCounter("inlet.dropped");
  sim->tick_ns_hist_ = sim->metrics_.GetHistogram(
      "engine.tick.ns",
      {10000, 100000, 1000000, 10000000, 100000000, 1000000000},
      obs::kMetricExecDependent);
  // Durable storage attaches before the registry is sized so storage.*
  // counters get their shard slots too. An existing world on disk is
  // never clobbered at build: ticking stays blocked until the caller
  // RestoreFrom()s it or Checkpoint()s over it.
  if (config_.storage.enabled()) {
    SGL_ASSIGN_OR_RETURN(
        sim->store_,
        storage::WorldStore::Open(config_.storage, &sim->metrics_));
    if (!sim->store_->has_world()) {
      SGL_RETURN_NOT_OK(sim->store_->Checkpoint(sim->table_, 0));
    }
    sim->table_.SetDeltaListener(sim->store_.get());
  }

  // Size every sharded metric once, after all bindings: chunk ids of the
  // parallel phases are the shard ids (NumChunks never exceeds the
  // thread count).
  sim->metrics_.SetNumShards(sim->threads_);
  if (!config_.artifacts.trace_path.empty()) {
    sim->tracer_ = std::make_unique<obs::Tracer>();
    sim->tracer_->SetNumShards(sim->threads_);
    if (sim->sharing_ != nullptr) {
      sim->sharing_->set_tracer(sim->tracer_.get());
    }
    for (auto& session : sim->sessions_) {
      if (session->provider != nullptr) {
        session->provider->set_tracer(sim->tracer_.get());
      }
    }
  }
  if (config_.artifacts.flight_recorder_ticks > 0) {
    sim->recorder_ = std::make_unique<obs::FlightRecorder>(
        &sim->metrics_, config_.artifacts.flight_recorder_ticks);
  }

  // --- mechanics ---------------------------------------------------------
  sim->mechanics_ = std::move(mechanics_);
  if (sim->mechanics_ != nullptr) {
    GameMechanics* m = sim->mechanics_.get();
    sim->apply_hooks_.push_back(
        [m](EnvironmentTable* table, const EffectBuffer& buffer,
            const TickRandom& rnd) {
          return m->ApplyEffects(table, buffer, rnd);
        });
    sim->end_tick_hooks_.push_back(
        [m](EnvironmentTable* table, const TickRandom& rnd) {
          return m->EndTick(table, rnd);
        });
  }
  for (auto& hook : apply_hooks_) sim->apply_hooks_.push_back(std::move(hook));
  for (auto& hook : end_tick_hooks_) {
    sim->end_tick_hooks_.push_back(std::move(hook));
  }

  // --- the phase pipeline ------------------------------------------------
  std::vector<std::unique_ptr<TickPhase>> pipeline;
  pipeline.push_back(std::make_unique<IndexBuildPhase>());
  pipeline.push_back(std::make_unique<DecisionActionPhase>());
  pipeline.push_back(std::make_unique<DeferredIndexPhase>());
  pipeline.push_back(std::make_unique<ApplyPhase>());
  if (!config_.move_x_attr.empty()) {
    SGL_ASSIGN_OR_RETURN(AttrId move_x, schema.Require(config_.move_x_attr));
    SGL_ASSIGN_OR_RETURN(AttrId move_y, schema.Require(config_.move_y_attr));
    SGL_ASSIGN_OR_RETURN(AttrId posx, schema.Require("posx"));
    SGL_ASSIGN_OR_RETURN(AttrId posy, schema.Require("posy"));
    pipeline.push_back(std::make_unique<MovementPhase>(
        move_x, move_y, posx, posy, config_.grid_width, config_.grid_height,
        config_.step_per_tick, config_.collisions));
  }
  pipeline.push_back(std::make_unique<MechanicsPhase>());

  // Disable.
  for (const std::string& name : disabled_phases_) {
    auto it = std::find_if(
        pipeline.begin(), pipeline.end(),
        [&](const std::unique_ptr<TickPhase>& p) { return p->name() == name; });
    if (it == pipeline.end()) {
      return Status::NotFound("DisablePhase: no phase named '", name, "'");
    }
    pipeline.erase(it);
  }

  // Reorder.
  if (!phase_order_.empty()) {
    if (phase_order_.size() != pipeline.size()) {
      return Status::Invalid(
          "SetPhaseOrder: order lists ", phase_order_.size(),
          " phases but the pipeline has ", pipeline.size());
    }
    std::vector<std::unique_ptr<TickPhase>> reordered;
    for (const std::string& name : phase_order_) {
      auto it = std::find_if(pipeline.begin(), pipeline.end(),
                             [&](const std::unique_ptr<TickPhase>& p) {
                               return p != nullptr && p->name() == name;
                             });
      if (it == pipeline.end()) {
        return Status::NotFound("SetPhaseOrder: no phase named '", name, "'");
      }
      reordered.push_back(std::move(*it));
    }
    pipeline = std::move(reordered);
  }

  // Insert / append custom phases.
  for (PhaseEdit& edit : phase_edits_) {
    if (edit.kind == PhaseEdit::Kind::kAppend) {
      pipeline.push_back(std::move(edit.phase));
      continue;
    }
    auto it = std::find_if(pipeline.begin(), pipeline.end(),
                           [&](const std::unique_ptr<TickPhase>& p) {
                             return p->name() == edit.anchor;
                           });
    if (it == pipeline.end()) {
      return Status::NotFound("InsertPhase: no phase named '", edit.anchor,
                              "'");
    }
    if (edit.kind == PhaseEdit::Kind::kInsertAfter) ++it;
    pipeline.insert(it, std::move(edit.phase));
  }

  // Phase names key the stats registry; duplicates would silently merge.
  std::unordered_set<std::string> phase_names;
  for (const auto& phase : pipeline) {
    if (!phase_names.insert(phase->name()).second) {
      return Status::AlreadyExists("two pipeline phases named '",
                                   phase->name(), "'");
    }
  }

  sim->pipeline_ = std::move(pipeline);
  return sim;
}

}  // namespace sgl
