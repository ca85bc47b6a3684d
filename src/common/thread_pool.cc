#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace fuser {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = ResolveNumThreads(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

size_t ResolveNumThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// Shared state of one ParallelFor call. Held by shared_ptr so pool
/// stragglers that run after the call returned (all chunks already done)
/// can still touch the counters safely; they never call fn.
struct ParallelForState {
  size_t count = 0;
  size_t chunk_size = 1;
  size_t num_chunks = 0;
  std::function<void(size_t)> fn;
  std::atomic<bool>* cancel = nullptr;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};
  std::mutex mu;
  std::condition_variable all_done;

  void RunWorker() {
    for (;;) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) {
        const size_t begin = chunk * chunk_size;
        const size_t end = std::min(begin + chunk_size, count);
        for (size_t i = begin; i < end; ++i) {
          if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            break;
          }
          fn(i);
        }
      }
      if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        // Lock pairs with the Wait below so the notify cannot race between
        // the waiter's predicate check and its sleep.
        std::lock_guard<std::mutex> lock(mu);
        all_done.notify_all();
      }
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [this] {
      return chunks_done.load(std::memory_order_acquire) == num_chunks;
    });
  }
};

}  // namespace

void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t)>& fn,
                 const ParallelForOptions& options) {
  if (count == 0) return;
  num_threads = std::min(ResolveNumThreads(num_threads), count);
  if (num_threads <= 1) {
    for (size_t i = 0; i < count; ++i) {
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        return;
      }
      fn(i);
    }
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->count = count;
  state->fn = fn;
  state->cancel = options.cancel;
  // A few chunks per worker: large enough that the claim counter is cold,
  // small enough that an unlucky slow chunk cannot straggle the whole call.
  const size_t target_chunks = num_threads * 8;
  state->chunk_size = std::max<size_t>(1, (count + target_chunks - 1) /
                                              target_chunks);
  state->num_chunks = (count + state->chunk_size - 1) / state->chunk_size;

  if (options.pool != nullptr) {
    for (size_t i = 0; i + 1 < num_threads; ++i) {
      options.pool->Schedule([state] { state->RunWorker(); });
    }
    state->RunWorker();
    state->Wait();
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    threads.emplace_back([&state] { state->RunWorker(); });
  }
  state->RunWorker();
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace fuser
