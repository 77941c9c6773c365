#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace sgl {
namespace exec {

namespace {

/// True while this thread is executing a chunk body; nested ParallelFor
/// calls then run inline instead of deadlocking on the pool.
thread_local bool tl_in_chunk = false;

/// Bounds of chunk `c` when [0, n) is split into `chunks` contiguous
/// near-equal parts (the first n % chunks parts get one extra element).
std::pair<int64_t, int64_t> ChunkBounds(int64_t n, int32_t chunks, int32_t c) {
  const int64_t base = n / chunks;
  const int64_t rem = n % chunks;
  const int64_t lo = c * base + std::min<int64_t>(c, rem);
  return {lo, lo + base + (c < rem ? 1 : 0)};
}

}  // namespace

int32_t ThreadPool::HardwareThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int32_t>(hc);
}

ThreadPool::ThreadPool(int32_t num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int32_t i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int32_t ThreadPool::NumChunks(int64_t n, int64_t grain) const {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  const int64_t by_grain = (n + grain - 1) / grain;
  return static_cast<int32_t>(
      std::max<int64_t>(1, std::min<int64_t>(num_threads_, by_grain)));
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
      // Register before releasing the lock: the issuing thread destroys
      // the task only once done == chunks AND active == 0, so a worker
      // that entered late (after all chunks were claimed) still holds the
      // task alive until it leaves RunChunks.
      if (task != nullptr) ++task->active;
    }
    if (task != nullptr) {
      RunChunks(task);
      std::lock_guard<std::mutex> lk(mu_);
      --task->active;
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunChunks(Task* task) {
  tl_in_chunk = true;
  for (;;) {
    const int32_t c = task->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= task->chunks) break;
    auto [lo, hi] = ChunkBounds(task->n, task->chunks, c);
    Timer timer;
    task->status[c] = (*task->fn)(c, lo, hi);
    task->chunk_ns[c] = timer.Nanos();
    // Release so the joining thread's acquire load sees status/chunk_ns.
    if (task->done.fetch_add(1, std::memory_order_release) + 1 ==
        task->chunks) {
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
  tl_in_chunk = false;
}

Status ThreadPool::ParallelFor(int64_t n, int64_t grain, const RangeFn& fn,
                               ParallelStats* stats) {
  if (n <= 0) return Status::OK();
  const int32_t chunks = NumChunks(n, grain);

  // Sequential path: one chunk, a single-thread pool, or a nested call
  // from inside a chunk body. Chunk indexing and bounds are identical to
  // the parallel path, so per-chunk outputs merge the same way, and as
  // there every chunk runs even after one fails. Every chunk runs on this
  // one thread, so the stats say so: one worker, busy for the sum of the
  // chunk times.
  if (chunks <= 1 || workers_.empty() || tl_in_chunk) {
    int64_t total_ns = 0;
    Status first_error;
    for (int32_t c = 0; c < chunks; ++c) {
      auto [lo, hi] = ChunkBounds(n, chunks, c);
      Timer timer;
      Status st = fn(c, lo, hi);
      total_ns += timer.Nanos();
      if (first_error.ok() && !st.ok()) first_error = std::move(st);
    }
    if (stats != nullptr) {
      stats->workers = std::max<int64_t>(stats->workers, 1);
      stats->max_worker_ns += total_ns;
    }
    return first_error;
  }

  Task task;
  task.fn = &fn;
  task.n = n;
  task.chunks = chunks;
  task.status.assign(chunks, Status::OK());
  task.chunk_ns.assign(chunks, 0);
  {
    std::lock_guard<std::mutex> lk(mu_);
    task_ = &task;
    ++generation_;
  }
  work_cv_.notify_all();

  RunChunks(&task);  // the caller works too

  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return task.done.load(std::memory_order_acquire) == task.chunks &&
             task.active == 0;
    });
    task_ = nullptr;
  }

  if (stats != nullptr) {
    stats->workers = std::max<int64_t>(stats->workers, chunks);
    stats->max_worker_ns +=
        *std::max_element(task.chunk_ns.begin(), task.chunk_ns.end());
  }
  for (int32_t c = 0; c < chunks; ++c) {
    if (!task.status[c].ok()) return task.status[c];
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace sgl
