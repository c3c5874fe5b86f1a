// Fixed-size worker pool backing the parallel simulation engine.
//
// Tasks are arbitrary std::function<void()> callables; submission is
// thread-safe from any thread.  Shutdown drains: every task submitted
// before ~ThreadPool begins is executed before the workers exit and are
// joined, so destroying a pool with a backlog of pending tasks is clean
// (no dropped work, no leaked threads — exercised under TSan/ASan by
// tests/parallel_test.cpp).  Tasks must not throw; wrap fallible work and
// capture the exception yourself (ParallelRunner does exactly that).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tolerance::util {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const;

  /// Grow to at least `num_threads` workers (never shrinks).  Lets the
  /// shared helper pool start small and expand to the largest concurrency
  /// actually requested instead of pre-spawning one thread per core.
  void ensure_workers(int num_threads);

  /// Enqueue one task.  Thread-safe; never blocks on task execution.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished executing.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  ///< guarded by mu_ (grow via ensure_workers)
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable task_cv_;  ///< workers sleep here for work
  std::condition_variable idle_cv_;  ///< wait_idle sleeps here for quiescence
  int active_ = 0;                   ///< tasks currently executing
  bool stop_ = false;
};

}  // namespace tolerance::util
