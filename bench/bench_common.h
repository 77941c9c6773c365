// Shared helpers for the benchmark harnesses: the unified CLI flag
// parser every bench uses, environment-variable fallbacks, and the
// battle timing shim the paper-figure benches share.
//
// Flags (unified across all benches; each harness reads the subset it
// needs and documents its defaults in its usage string):
//
//   --units 500,2000      unit-count sweep (comma-separated list)
//   --ticks N             ticks per measurement
//   --threads 1,4         worker-thread sweep
//   --seed N              scenario seed
//   --json PATH           also write machine-readable results to PATH
//   --scenarios a,b       (bench_suite) restrict to named scenarios
//   --modes naive,indexed (bench_suite) evaluator modes
//   --compiled on,off     (bench_suite) bytecode-VM sweep
//   --storage off,on      (bench_suite) disk-backed world sweep
//   --naive-max N         largest unit count the naive evaluator runs
//   --quick               small preset for CI smoke runs
//   --list                (bench_suite) list scenarios and exit
//
// Flag > environment variable (SGL_BENCH_TICKS, SGL_BENCH_NAIVE_MAX) >
// built-in default, so existing env-driven invocations keep working.
#ifndef SGL_BENCH_BENCH_COMMON_H_
#define SGL_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "game/battle.h"
#include "util/timer.h"

namespace sgl {

/// Ticks per measurement. The paper simulates 500 ticks per data point;
/// that is minutes of naive-engine wall clock, so the default here is
/// smaller and the harness reports per-tick numbers (which the paper's
/// own "proportional to the number of ticks simulated, to within one
/// percent" observation justifies). Set SGL_BENCH_TICKS=500 to reproduce
/// the full-scale run.
inline int64_t BenchTicks(int64_t fallback = 20) {
  const char* env = std::getenv("SGL_BENCH_TICKS");
  if (env != nullptr) {
    int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Largest unit count the naive engine is asked to simulate (its O(n^2)
/// tick cost makes the full 14000-unit sweep impractical by design —
/// that asymmetry is the experiment). Override with SGL_BENCH_NAIVE_MAX.
inline int32_t NaiveMaxUnits(int32_t fallback = 2000) {
  const char* env = std::getenv("SGL_BENCH_NAIVE_MAX");
  if (env != nullptr) {
    int32_t v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Parsed unified bench CLI. Zero/empty fields mean "not given"; the
/// *Or accessors layer flag > env > default.
struct BenchArgs {
  std::vector<int32_t> units;
  std::vector<int32_t> threads;
  std::vector<int32_t> sessions;  // co-scheduled session sweep (bench_suite)
  std::vector<std::string> scenarios;
  std::vector<std::string> modes;
  std::vector<std::string> sharing;   // "on" / "off" sweep (bench_suite)
  std::vector<std::string> compiled;  // "on" / "off" sweep (bench_suite)
  std::vector<std::string> storage;   // "off" / "on" sweep (bench_suite)
  int64_t ticks = 0;
  uint64_t seed = 0;
  bool seed_set = false;  // --seed 0 is a legitimate seed
  int64_t naive_max = 0;
  std::string json_path;
  bool quick = false;
  bool list = false;
  /// Embed each cell's deterministic metrics snapshot in the JSON output
  /// (bench_suite): informational context for tools/bench_compare.py's
  /// regression reports, never itself a gate.
  bool metrics = false;

  int64_t TicksOr(int64_t fallback) const {
    return ticks > 0 ? ticks : BenchTicks(fallback);
  }
  uint64_t SeedOr(uint64_t fallback) const {
    return seed_set ? seed : fallback;
  }
  int32_t NaiveMaxOr(int32_t fallback) const {
    return naive_max > 0 ? static_cast<int32_t>(naive_max)
                         : NaiveMaxUnits(fallback);
  }
  std::vector<int32_t> UnitsOr(std::vector<int32_t> fallback) const {
    return units.empty() ? fallback : units;
  }
  std::vector<int32_t> ThreadsOr(std::vector<int32_t> fallback) const {
    return threads.empty() ? fallback : threads;
  }
  std::vector<int32_t> SessionsOr(std::vector<int32_t> fallback) const {
    return sessions.empty() ? fallback : sessions;
  }
};

namespace bench_internal {

inline std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Strict integer parse: the whole token must be digits (no atoi-style
/// silent truncation of "1e3" to 1). Exits (2) on malformed input.
inline int64_t ParseIntOrExit(const char* flag, const std::string& token) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: '%s' is not an integer\n", flag, token.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(v);
}

inline int64_t ParsePositiveIntOrExit(const char* flag,
                                      const std::string& token) {
  int64_t v = ParseIntOrExit(flag, token);
  if (v <= 0) {
    std::fprintf(stderr, "%s: '%s' must be positive\n", flag, token.c_str());
    std::exit(2);
  }
  return v;
}

inline std::vector<int32_t> SplitIntList(const char* flag,
                                         const std::string& csv) {
  std::vector<int32_t> out;
  for (const std::string& item : SplitList(csv)) {
    out.push_back(
        static_cast<int32_t>(ParsePositiveIntOrExit(flag, item)));
  }
  return out;
}

}  // namespace bench_internal

/// Print the unified usage block (shared flag vocabulary) plus the
/// bench-specific preamble.
inline void PrintBenchUsage(const char* bench, const char* extra) {
  std::fprintf(stderr,
               "usage: %s [flags]\n"
               "%s"
               "  --units A,B,...     unit-count sweep\n"
               "  --ticks N           ticks per measurement "
               "(env SGL_BENCH_TICKS)\n"
               "  --threads A,B,...   worker-thread sweep\n"
               "  --sessions A,B,...  co-scheduled session sweep "
               "(bench_suite)\n"
               "  --seed N            workload seed\n"
               "  --json PATH         write machine-readable results to PATH\n"
               "  --scenarios A,B,... restrict to named scenarios\n"
               "  --modes A,B,...     evaluator modes "
               "(naive, indexed, adaptive)\n"
               "  --sharing A,B,...   aggregate-sharing sweep (on, off)\n"
               "  --compiled A,B,...  bytecode-VM sweep (on, off)\n"
               "  --storage A,B,...   disk-backed world sweep (off, on)\n"
               "  --naive-max N       naive-evaluator unit cap "
               "(env SGL_BENCH_NAIVE_MAX)\n"
               "  --quick             small CI smoke preset\n"
               "  --metrics           embed per-cell metrics snapshots in "
               "the JSON\n"
               "  --list              list registered scenarios and exit\n",
               bench, extra);
}

/// Parse argv with the unified flag vocabulary; exits (2) on malformed
/// input, exits (0) after printing usage for --help.
inline BenchArgs ParseBenchArgsOrExit(int argc, char** argv, const char* bench,
                                      const char* extra_usage = "") {
  BenchArgs args;
  auto value_of = [&](int* i, const char* flag) -> std::string {
    const char* arg = argv[*i];
    const char* eq = std::strchr(arg, '=');
    if (eq != nullptr) return std::string(eq + 1);
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    return std::string(argv[++*i]);
  };
  auto is_flag = [](const char* arg, const char* name) {
    size_t n = std::strlen(name);
    return std::strncmp(arg, name, n) == 0 &&
           (arg[n] == '\0' || arg[n] == '=');
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (is_flag(arg, "--units")) {
      args.units =
          bench_internal::SplitIntList("--units", value_of(&i, "--units"));
    } else if (is_flag(arg, "--ticks")) {
      args.ticks = bench_internal::ParsePositiveIntOrExit(
          "--ticks", value_of(&i, "--ticks"));
    } else if (is_flag(arg, "--threads")) {
      args.threads =
          bench_internal::SplitIntList("--threads", value_of(&i, "--threads"));
    } else if (is_flag(arg, "--sessions")) {
      args.sessions = bench_internal::SplitIntList(
          "--sessions", value_of(&i, "--sessions"));
    } else if (is_flag(arg, "--seed")) {
      args.seed = static_cast<uint64_t>(
          bench_internal::ParseIntOrExit("--seed", value_of(&i, "--seed")));
      args.seed_set = true;
    } else if (is_flag(arg, "--json")) {
      args.json_path = value_of(&i, "--json");
    } else if (is_flag(arg, "--scenarios")) {
      args.scenarios = bench_internal::SplitList(value_of(&i, "--scenarios"));
    } else if (is_flag(arg, "--modes")) {
      args.modes = bench_internal::SplitList(value_of(&i, "--modes"));
    } else if (is_flag(arg, "--sharing")) {
      args.sharing = bench_internal::SplitList(value_of(&i, "--sharing"));
      for (const std::string& s : args.sharing) {
        if (s != "on" && s != "off") {
          std::fprintf(stderr, "--sharing: '%s' is not on/off\n", s.c_str());
          std::exit(2);
        }
      }
    } else if (is_flag(arg, "--compiled")) {
      args.compiled = bench_internal::SplitList(value_of(&i, "--compiled"));
      for (const std::string& s : args.compiled) {
        if (s != "on" && s != "off") {
          std::fprintf(stderr, "--compiled: '%s' is not on/off\n", s.c_str());
          std::exit(2);
        }
      }
    } else if (is_flag(arg, "--storage")) {
      args.storage = bench_internal::SplitList(value_of(&i, "--storage"));
      for (const std::string& s : args.storage) {
        if (s != "on" && s != "off") {
          std::fprintf(stderr, "--storage: '%s' is not on/off\n", s.c_str());
          std::exit(2);
        }
      }
    } else if (is_flag(arg, "--naive-max")) {
      args.naive_max = bench_internal::ParsePositiveIntOrExit(
          "--naive-max", value_of(&i, "--naive-max"));
    } else if (std::strcmp(arg, "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      args.metrics = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      args.list = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintBenchUsage(bench, extra_usage);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n\n", arg);
      PrintBenchUsage(bench, extra_usage);
      std::exit(2);
    }
  }
  return args;
}

/// Append-mode JSON-lines sink: each bench row becomes one object. A
/// default-constructed (pathless) sink swallows writes, so call sites
/// don't branch on --json.
class JsonLines {
 public:
  JsonLines() = default;
  explicit JsonLines(const std::string& path) {
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      std::exit(2);
    }
  }
  ~JsonLines() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JsonLines(const JsonLines&) = delete;
  JsonLines& operator=(const JsonLines&) = delete;

  void WriteLine(const std::string& json_object) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\n", json_object.c_str());
    std::fflush(file_);
  }

 private:
  std::FILE* file_ = nullptr;
};

/// Run one battle configuration and return seconds for `ticks` ticks.
inline double TimeBattle(const ScenarioConfig& scenario, EvaluatorMode mode,
                         int64_t ticks) {
  auto setup = MakeBattleSim(scenario, mode);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup.status().ToString().c_str());
    std::exit(1);
  }
  Timer timer;
  Status st = setup->sim->Run(ticks);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return timer.Seconds();
}

}  // namespace sgl

#endif  // SGL_BENCH_BENCH_COMMON_H_
