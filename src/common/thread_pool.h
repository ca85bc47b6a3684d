// Fixed-size thread pool with a ParallelFor helper.
//
// PrecRecCorr's per-triple probabilities are independent (the paper notes
// "Parallelization can significantly improve the efficiency of
// PrecRecCorr"); the engine uses ParallelFor to score distinct observation
// patterns concurrently. The engine owns one persistent ThreadPool and
// passes it through ParallelForOptions so repeated Run/Update calls reuse
// warm workers instead of paying thread creation per parallel section.
#ifndef FUSER_COMMON_THREAD_POOL_H_
#define FUSER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fuser {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 = one per hardware thread).
  explicit ThreadPool(size_t num_threads);
  /// Runs every task already scheduled, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Schedule(std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::queue<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// Resolves a user-facing thread-count setting: 0 ("auto") becomes
/// std::thread::hardware_concurrency(), floored at 1. Every component that
/// exposes a num_threads option routes it through here so "auto" means the
/// same thing everywhere.
size_t ResolveNumThreads(size_t num_threads);

struct ParallelForOptions {
  /// Run worker tasks on this pool instead of spawning fresh OS threads
  /// (the calling thread always participates as one worker). The pool may
  /// be shared: stragglers that find no chunk left exit immediately, so a
  /// ParallelFor never blocks on unrelated pool work beyond in-flight
  /// tasks.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: when non-null and set, workers stop claiming
  /// chunks and skip remaining items. Already-running fn calls finish;
  /// ParallelFor still returns only after every claimed chunk completes.
  std::atomic<bool>* cancel = nullptr;
};

/// Runs fn(i) for i in [0, count) across `num_threads` workers, blocking
/// until completion. num_threads is resolved via ResolveNumThreads (0 =
/// hardware concurrency); with a single resolved worker (or count <= 1) it
/// runs inline. `fn` must be safe to invoke concurrently for distinct i.
///
/// Dispatch is chunked: workers claim contiguous index ranges (a handful
/// per worker) from one atomic counter, not one index at a time, so cheap
/// per-item bodies are not dominated by contended fetch_adds.
void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t)>& fn,
                 const ParallelForOptions& options = {});

}  // namespace fuser

#endif  // FUSER_COMMON_THREAD_POOL_H_
