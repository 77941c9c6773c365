// Observability layer tests: registry merge determinism across thread
// counts, histogram bucket edges, tracer span nesting and drop bounding,
// Perfetto-JSON well-formedness, and the flight recorder's ring and
// failure dumps.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/scenario.h"

namespace sgl {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------------- registry

TEST(Metrics, CounterMergesShards) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("test.counter");
  reg.SetNumShards(4);
  c->Add(1, 0);
  c->Add(10, 1);
  c->Add(100, 2);
  c->Add(1000, 3);
  EXPECT_EQ(1111, c->value());
  // Out-of-range shards fold into slot 0 instead of writing past the
  // array (the unsized-standalone fallback).
  c->Add(5, 99);
  EXPECT_EQ(1116, c->value());
}

TEST(Metrics, ReGetReturnsSameHandleAndMergesFlags) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x", obs::kMetricNone);
  obs::Counter* b = reg.GetCounter("x", obs::kMetricExecDependent);
  EXPECT_EQ(a, b);
  EXPECT_EQ(obs::kMetricExecDependent, a->flags());
}

TEST(Metrics, HistogramBucketEdges) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h", {10, 100});
  reg.SetNumShards(2);
  h->Record(5, 0);     // <= 10
  h->Record(10, 1);    // <= 10 (edge is inclusive)
  h->Record(11, 0);    // <= 100
  h->Record(100, 1);   // <= 100
  h->Record(1000, 0);  // unbounded tail
  EXPECT_EQ(5, h->count());
  EXPECT_EQ(5 + 10 + 11 + 100 + 1000, h->sum());
  EXPECT_EQ(2, h->bucket_count(0));
  EXPECT_EQ(2, h->bucket_count(1));
  EXPECT_EQ(1, h->bucket_count(2));
}

TEST(Metrics, DeterministicSnapshotDropsExecDependent) {
  obs::MetricsRegistry reg;
  reg.GetCounter("stable")->Add(7);
  reg.GetCounter("wallclock", obs::kMetricExecDependent)->Add(123);
  const std::string all = reg.ToJson(/*deterministic_only=*/false);
  const std::string det = reg.ToJson(/*deterministic_only=*/true);
  EXPECT_NE(all.find("\"wallclock\""), std::string::npos);
  EXPECT_NE(all.find("\"stable\""), std::string::npos);
  EXPECT_EQ(det.find("\"wallclock\""), std::string::npos);
  EXPECT_NE(det.find("\"stable\""), std::string::npos);
}

TEST(Metrics, FlatValuesFlattenHistogramsAndFollowTheDeterminismRule) {
  obs::MetricsRegistry reg;
  reg.GetCounter("c")->Add(2);
  reg.GetHistogram("h", {10})->Record(4);
  reg.GetHistogram("t", {10}, obs::kMetricExecDependent)->Record(40);
  using Flat = std::vector<std::pair<std::string, int64_t>>;
  EXPECT_EQ((Flat{{"c", 2},
                  {"h.bucket.10", 1},
                  {"h.bucket.inf", 0},
                  {"h.count", 1},
                  {"h.sum", 4},
                  {"t.bucket.10", 0},
                  {"t.bucket.inf", 1},
                  {"t.count", 1},
                  {"t.sum", 40}}),
            reg.FlatValues());
  EXPECT_EQ((Flat{{"c", 2},
                  {"h.bucket.10", 1},
                  {"h.bucket.inf", 0},
                  {"h.count", 1},
                  {"h.sum", 4}}),
            reg.FlatValues(/*deterministic_only=*/true));
}

// --------------------------------------------------------------- tracer

TEST(Trace, SpansNestAndCollectInOrder) {
  obs::Tracer tracer;
  {
    obs::SpanScope outer(&tracer, "outer", 0, 0);
    tracer.Instant("mark", 0, 0, "{\"k\":1}");
    { obs::SpanScope inner(&tracer, "inner", 0, 0); }
  }
  std::vector<obs::TraceEvent> events = tracer.Collect();
  ASSERT_EQ(3u, events.size());
  // ts ascending, longer spans first at equal ts: the outer span leads.
  EXPECT_EQ("outer", events[0].name);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
  const obs::TraceEvent* outer = &events[0];
  for (const obs::TraceEvent& e : events) {
    if (e.name == "inner") {
      EXPECT_GE(e.ts_ns, outer->ts_ns);
      EXPECT_LE(e.ts_ns + e.dur_ns, outer->ts_ns + outer->dur_ns);
    }
    if (e.name == "mark") {
      EXPECT_EQ(-1, e.dur_ns);  // instant
      EXPECT_EQ("{\"k\":1}", e.args_json);
    }
  }
}

TEST(Trace, NullTracerIsANoOp) {
  obs::SpanScope span(nullptr, "nothing", 0, 0);
  span.set_args_json("{\"ignored\":true}");
  // Destruction must not emit or crash; nothing observable to assert
  // beyond reaching the end of scope.
}

TEST(Trace, FullShardDropsAndCounts) {
  obs::Tracer tracer(/*max_events_per_shard=*/4);
  for (int i = 0; i < 10; ++i) tracer.Instant("e", 0, 0);
  EXPECT_EQ(4u, tracer.Collect().size());
  EXPECT_EQ(6, tracer.dropped());
}

TEST(Trace, JsonIsChromeTraceShaped) {
  obs::Tracer tracer;
  { obs::SpanScope span(&tracer, "tick", 0, 0); }
  tracer.Instant("vm.bail", 1, 0, "{\"row_lo\":0,\"rows\":8}");
  const std::string json = tracer.ToJson();
  EXPECT_EQ(0u, json.find("{\"traceEvents\":["));
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"row_lo\":0,\"rows\":8}"),
            std::string::npos);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, RingKeepsTheLastNTicks) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("events");
  obs::FlightRecorder recorder(&reg, /*capacity=*/3);
  for (int64_t tick = 0; tick < 5; ++tick) {
    c->Add(10);
    recorder.RecordTick(tick, /*ns=*/1000 + tick, /*rows=*/42);
  }
  EXPECT_EQ(3, recorder.size());
  const std::string json = recorder.ToJson("test");
  // Oldest two ticks rolled out of the ring; the delta survives per tick.
  EXPECT_EQ(json.find("\"tick\":0,"), std::string::npos);
  EXPECT_EQ(json.find("\"tick\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"tick\":2,"), std::string::npos);
  EXPECT_NE(json.find("\"tick\":4,"), std::string::npos);
  EXPECT_NE(json.find("\"events\":10"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"test\""), std::string::npos);
}

TEST(FlightRecorder, DumpOnForcedInvariantFailure) {
  // Clone the battle scenario with an invariant that always trips: the
  // registry's CheckInvariants must dump the flight ring on failure.
  auto battle = ScenarioRegistry::Global().Get("battle");
  ASSERT_TRUE(battle.ok());
  ScenarioDef bad = **battle;
  bad.name = "battle_bad_invariant";
  bad.invariant = [](const ScenarioParams&, const Simulation&) {
    return Status::Invalid("forced invariant failure");
  };
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register(std::move(bad)).ok());

  const std::string dump_path =
      ::testing::TempDir() + "/obs_invariant_flight.json";
  std::remove(dump_path.c_str());
  ScenarioParams params;
  params.units = 60;
  params.seed = 5;
  SimulationConfig config;
  config.artifacts.flight_recorder_ticks = 4;
  config.artifacts.flight_recorder_path = dump_path;
  auto sim =
      registry.BuildSimulation("battle_bad_invariant", params, config);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->Run(6).ok());

  Status st =
      registry.CheckInvariants("battle_bad_invariant", params, **sim);
  EXPECT_FALSE(st.ok());
  const std::string dump = ReadFile(dump_path);
  ASSERT_FALSE(dump.empty()) << "no flight dump at " << dump_path;
  EXPECT_NE(dump.find("invariant failure"), std::string::npos);
  EXPECT_NE(dump.find("\"ticks\":["), std::string::npos);
  EXPECT_NE(dump.find("\"deltas\":{"), std::string::npos);
}

// ------------------------------------------- end-to-end via simulation

/// Run `scenario` for `ticks` and return the deterministic metrics
/// snapshot (counters bit-identical across thread counts by contract).
std::string DeterministicSnapshot(const std::string& scenario,
                                  int32_t threads, int64_t ticks) {
  ScenarioParams params;
  params.units = 150;
  params.seed = 11;
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kAdaptive;
  config.threads = threads;
  auto sim =
      ScenarioRegistry::Global().BuildSimulation(scenario, params, config);
  EXPECT_TRUE(sim.ok()) << scenario << ": " << sim.status().ToString();
  if (!sim.ok()) return "";
  Status st = (*sim)->Run(ticks);
  EXPECT_TRUE(st.ok()) << scenario << ": " << st.ToString();
  return (*sim)->MetricsJson(/*deterministic_only=*/true);
}

TEST(Metrics, SnapshotsBitIdenticalAcrossThreadCounts) {
  for (const std::string& scenario : ScenarioRegistry::Global().List()) {
    const std::string reference = DeterministicSnapshot(scenario, 1, 8);
    ASSERT_FALSE(reference.empty()) << scenario;
    for (int32_t threads : {4, 8}) {
      EXPECT_EQ(reference, DeterministicSnapshot(scenario, threads, 8))
          << scenario << " diverged with " << threads << " threads";
    }
  }
}

// Per-family build counters: rows passing each build are a pure count
// (kept in the deterministic snapshot when no sharing decorator sits
// above the provider), build wall time is not.
TEST(Metrics, FamilyBuildCountersFollowTheDeterminismRule) {
  auto snapshot = [](int32_t threads, bool deterministic_only) {
    ScenarioParams params;
    params.units = 150;
    params.seed = 11;
    SimulationConfig config;
    config.eval_mode = EvaluatorMode::kIndexed;
    config.sharing = false;
    config.threads = threads;
    auto sim =
        ScenarioRegistry::Global().BuildSimulation("battle", params, config);
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    if (!sim.ok()) return std::string();
    EXPECT_TRUE((*sim)->Run(5).ok());
    return (*sim)->MetricsJson(deterministic_only);
  };
  const std::string det = snapshot(1, true);
  EXPECT_NE(std::string::npos, det.find("agg.family0.rows\""));
  EXPECT_EQ(std::string::npos, det.find("build_ns"));
  EXPECT_EQ(det, snapshot(4, true));
  EXPECT_NE(std::string::npos, snapshot(1, false).find("agg.family0.build_ns"));
}

TEST(Trace, SimulationEmitsTickPhaseChunkHierarchy) {
  const std::string trace_path = ::testing::TempDir() + "/obs_trace.json";
  std::remove(trace_path.c_str());
  ScenarioParams params;
  params.units = 150;
  params.seed = 11;
  SimulationConfig config;
  config.threads = 4;
  config.artifacts.trace_path = trace_path;
  auto sim =
      ScenarioRegistry::Global().BuildSimulation("battle", params, config);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->Run(10).ok());
  ASSERT_NE(nullptr, (*sim)->tracer());
  ASSERT_TRUE((*sim)->WriteTrace(trace_path).ok());

  const std::string json = ReadFile(trace_path);
  EXPECT_EQ(0u, json.find("{\"traceEvents\":["));
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decision-action\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"index-build\""), std::string::npos);
  // Worker spans land on tid 1 + chunk.
  EXPECT_NE(json.find("\"name\":\"chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_EQ(0, (*sim)->tracer()->dropped());
}

TEST(Metrics, SnapshotPerTickJsonLines) {
  const std::string metrics_path =
      ::testing::TempDir() + "/obs_metrics.jsonl";
  std::remove(metrics_path.c_str());
  ScenarioParams params;
  params.units = 60;
  params.seed = 3;
  SimulationConfig config;
  config.artifacts.metrics_path = metrics_path;
  auto sim =
      ScenarioRegistry::Global().BuildSimulation("market", params, config);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->Run(5).ok());

  std::ifstream in(metrics_path);
  std::string line;
  int64_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(0u, line.find("{\"tick\":"));
    EXPECT_NE(line.find("\"metrics\":{\"counters\":{"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(5, lines);
}

TEST(FlightRecorder, TickErrorDumpsAutomatically) {
  // A phase that fails mid-run: Tick() must dump the ring on its way out.
  class BoomPhase : public TickPhase {
   public:
    BoomPhase() : TickPhase("boom") {}
    Status Run(TickContext* ctx) override {
      if (ctx->tick >= 3) return Status::Internal("synthetic failure");
      return Status::OK();
    }
  };

  const std::string dump_path =
      ::testing::TempDir() + "/obs_tick_error_flight.json";
  std::remove(dump_path.c_str());
  ScenarioParams params;
  params.units = 60;
  params.seed = 5;
  SimulationConfig config;
  config.artifacts.flight_recorder_ticks = 8;
  config.artifacts.flight_recorder_path = dump_path;

  auto def = ScenarioRegistry::Global().Get("battle");
  ASSERT_TRUE(def.ok());
  auto world = (*def)->world(params);
  ASSERT_TRUE(world.ok());
  config.seed = params.seed;
  SimulationBuilder builder;
  builder.SetTable(world.MoveValue())
      .SetConfig(config)
      .Apply([&](SimulationBuilder& b) {
        return (*def)->configure(params, b);
      })
      .AddPhase(std::make_unique<BoomPhase>());
  auto sim = builder.Build();
  ASSERT_TRUE(sim.ok());

  Status st = (*sim)->Run(10);
  EXPECT_FALSE(st.ok());
  const std::string dump = ReadFile(dump_path);
  ASSERT_FALSE(dump.empty()) << "no flight dump at " << dump_path;
  EXPECT_NE(dump.find("failed in phase"), std::string::npos);
  EXPECT_NE(dump.find("synthetic failure"), std::string::npos);
  EXPECT_NE(dump.find("\"ticks\":["), std::string::npos);
}

}  // namespace
}  // namespace sgl
