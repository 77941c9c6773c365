// Deterministic parallel execution primitives (the src/exec/ subsystem).
//
// The paper's state-effect pattern (Sections 2.2 and 4.3) makes a clock
// tick embarrassingly parallel by construction: decisions read only the
// frozen pre-tick environment, randomness is the pure function
// r(tick_seed, unit_key, i) of util/rng.h, and ⊕ effect combination is
// associative and commutative with deterministic tie-breaking. This pool
// exploits that latent parallelism while keeping a hard contract the test
// suite enforces: for any seed, script set and thread count, every tick is
// bit-identical to single-threaded execution.
//
// The pool is deliberately work-stealing-free. ParallelFor splits a range
// into at most num_threads() contiguous, ascending chunks whose bounds
// depend only on (range, grain, num_threads); workers claim chunks from a
// shared ticket counter. Which worker runs which chunk is scheduling noise
// — all per-chunk outputs (effect-log shards, probe tallies, deferred
// action batches) are keyed by chunk index and merged in chunk order, so
// results never depend on the schedule.
#ifndef SGL_EXEC_THREAD_POOL_H_
#define SGL_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace sgl {
namespace exec {

/// Aggregated per-ParallelFor timing, rolled up into PhaseStats
/// (`workers` / `max_worker_ns`) by the phases that opt in.
struct ParallelStats {
  int64_t workers = 0;        ///< max threads one ParallelFor ran on
  int64_t max_worker_ns = 0;  ///< accumulated slowest-worker wall time
};

/// A fixed-size pool of worker threads with a chunked ParallelFor.
///
/// Construction spawns num_threads - 1 workers; the calling thread
/// participates in every ParallelFor, so num_threads == 1 means a plain
/// sequential loop with zero threads and zero synchronization. ParallelFor
/// must only be issued from one external thread at a time (the engine's
/// tick loop); calls made *from inside* a chunk body run inline on the
/// calling worker, which makes nested parallelism safe but sequential.
class ThreadPool {
 public:
  /// fn(chunk, begin, end): process the half-open range [begin, end).
  /// Chunk indices are dense, ascending with begin, and stable across
  /// runs; use them to key per-chunk output shards.
  using RangeFn = std::function<Status(int32_t chunk, int64_t begin,
                                       int64_t end)>;

  /// Hardware concurrency, clamped to at least 1 (the value used by
  /// SimulationBuilder::Threads(0) auto-detection).
  static int32_t HardwareThreads();

  explicit ThreadPool(int32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int32_t num_threads() const { return num_threads_; }

  /// Number of chunks ParallelFor(n, grain, ..) will use:
  /// min(num_threads, ceil(n / grain)), at least 1 for n > 0. Exposed so
  /// callers can size per-chunk shards before dispatching.
  int32_t NumChunks(int64_t n, int64_t grain) const;

  /// Run fn over [0, n) split into NumChunks(n, grain) contiguous chunks.
  /// Blocks until every chunk finished; all chunks run even if one fails,
  /// and the error of the lowest-numbered failing chunk is returned (so
  /// error reporting is deterministic too). `stats`, when given,
  /// accumulates the worker count and the slowest worker's wall time:
  /// chunks and the slowest chunk when they run in parallel, one worker
  /// and the summed chunk time when they run inline (a one-thread pool,
  /// a single chunk, or a call nested inside a chunk body).
  Status ParallelFor(int64_t n, int64_t grain, const RangeFn& fn,
                     ParallelStats* stats = nullptr);

 private:
  struct Task {
    const RangeFn* fn = nullptr;
    int64_t n = 0;
    int32_t chunks = 0;
    std::atomic<int32_t> next{0};
    std::atomic<int32_t> done{0};
    int32_t active = 0;             // workers inside RunChunks; guarded by mu_
    std::vector<Status> status;     // per chunk
    std::vector<int64_t> chunk_ns;  // per chunk wall time
  };

  void WorkerLoop();
  void RunChunks(Task* task);

  const int32_t num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Task* task_ = nullptr;     // guarded by mu_
  uint64_t generation_ = 0;  // guarded by mu_; bumped per ParallelFor
  bool stop_ = false;        // guarded by mu_
};

}  // namespace exec
}  // namespace sgl

#endif  // SGL_EXEC_THREAD_POOL_H_
