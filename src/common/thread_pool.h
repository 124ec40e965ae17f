/// \file thread_pool.h
/// A small work-stealing thread pool for the SP query path (sharded scatter
/// and QueryBatch). The chain seals blocks and the client verifies answers on
/// the caller's thread; gas metering stays strictly single-threaded.
///
/// Design (see docs/PERFORMANCE.md):
///   - one lock-guarded deque per worker; owners pop LIFO (cache-hot), idle
///     workers steal FIFO from victims (oldest work first);
///   - ParallelFor carves [begin, end) into grain-sized chunks handed out
///     through one shared atomic cursor, so chunks self-balance across
///     workers regardless of per-chunk cost;
///   - the calling thread always participates, and while waiting for helpers
///     it steals other pool work instead of blocking, which makes *nested*
///     ParallelFor calls from inside pool tasks deadlock-free;
///   - a pool with zero worker threads degrades to plain serial execution
///     (the caller runs every chunk), which is also the fallback wherever a
///     `ThreadPool*` parameter is nullptr.
#ifndef GEM2_COMMON_THREAD_POOL_H_
#define GEM2_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gem2::common {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `num_threads` worker threads in addition to callers; 0 means
  /// DefaultThreads(). The pool is ready immediately.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs body(chunk_begin, chunk_end) over [begin, end) in grain-sized
  /// chunks, on the pool plus the calling thread. Returns when every chunk
  /// has finished. The first exception thrown by any chunk is rethrown on
  /// the caller. `grain` < 1 is treated as 1.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Process-wide pool, sized by GEM2_THREADS (default: hardware threads
  /// minus one, so the caller's thread brings the total to the hardware
  /// concurrency). Created on first use.
  static ThreadPool& Global();

  /// Worker count Global() would use (reads GEM2_THREADS).
  static size_t DefaultThreads();

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  /// Enqueues one task. Pool-thread callers push to their own deque
  /// (LIFO locality); external callers round-robin across workers.
  void Submit(Task task);
  /// Runs one queued task if any is available (own deque first for pool
  /// threads, then stealing). Returns false when every deque was empty.
  bool TryRunOneTask();
  void WorkerLoop(size_t index);
  bool PopTask(size_t preferred, Task* out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex sleep_mutex_;
  std::condition_variable wakeup_;
  std::atomic<uint64_t> pending_{0};
  std::atomic<uint64_t> next_queue_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace gem2::common

#endif  // GEM2_COMMON_THREAD_POOL_H_
