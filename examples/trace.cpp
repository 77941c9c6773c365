// Observability tour: run the battle scenario with every instrument on
// and leave the artifacts behind for inspection.
//
//   trace [OUT_DIR]   # default: current directory
//
// Produces in OUT_DIR:
//   trace.json      Chrome trace-event JSON — open in Perfetto
//                   (ui.perfetto.dev) or chrome://tracing to see the
//                   tick → phase → per-chunk worker span hierarchy
//   metrics.jsonl   one metrics snapshot per tick (JSON lines)
//   flight.json     the flight recorder's last-16-ticks ring, dumped
//                   here on demand (normally written only on failure)
#include <cstdio>
#include <string>

#include "scenario/scenario.h"

using namespace sgl;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  ScenarioParams params;
  params.units = 300;
  params.density = 0.02;
  params.seed = 11;

  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kAdaptive;
  config.threads = 4;
  config.artifacts.trace_path = out_dir + "/trace.json";
  config.artifacts.metrics_path = out_dir + "/metrics.jsonl";
  config.artifacts.flight_recorder_ticks = 16;
  config.artifacts.flight_recorder_path = out_dir + "/flight.json";

  auto& registry = ScenarioRegistry::Global();
  auto sim = registry.BuildSimulation("battle", params, config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }

  const int64_t ticks = 100;
  Status st = (*sim)->Run(ticks);
  if (!st.ok()) {
    // Tick() already dumped the flight recorder on its way out.
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  st = registry.CheckInvariants("battle", params, **sim);
  if (!st.ok()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("%s: %lld ticks over %d rows, %d threads\n\n",
              (*sim)->name().c_str(), static_cast<long long>(ticks),
              (*sim)->table().NumRows(), (*sim)->threads());
  std::printf("%s\n", (*sim)->stats().ToString().c_str());

  // The destructor would write the trace too; writing it now lets us
  // report failures and still dump a healthy flight ring for the tour.
  st = (*sim)->WriteTrace(config.artifacts.trace_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  st = (*sim)->DumpFlightRecorder(config.artifacts.flight_recorder_path,
                                  "example dump (no failure)");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("wrote %s (%lld events dropped)\n", config.artifacts.trace_path.c_str(),
              static_cast<long long>((*sim)->tracer()->dropped()));
  std::printf("wrote %s\n", config.artifacts.metrics_path.c_str());
  std::printf("wrote %s (%d-tick ring)\n", config.artifacts.flight_recorder_path.c_str(),
              (*sim)->flight_recorder()->size());
  std::printf("\ndeterministic metrics snapshot:\n%s",
              (*sim)->MetricsJson(/*deterministic_only=*/true).c_str());
  return 0;
}
