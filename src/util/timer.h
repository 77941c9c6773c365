// Lightweight wall-clock timing for the benchmark harnesses and the
// engine's per-phase instrumentation (Section 6 measures per-tick cost).
#ifndef SGL_UTIL_TIMER_H_
#define SGL_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace sgl {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

  /// Elapsed nanoseconds (per-worker timing feeds PhaseStats as int64).
  int64_t Nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sgl

#endif  // SGL_UTIL_TIMER_H_
