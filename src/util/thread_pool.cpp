#include "tolerance/util/thread_pool.hpp"

#include "tolerance/util/ensure.hpp"

namespace tolerance::util {

ThreadPool::ThreadPool(int num_threads) {
  TOL_ENSURE(num_threads > 0, "thread pool needs at least one worker");
  ensure_workers(num_threads);
}

int ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::ensure_workers(int num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  TOL_ENSURE(!stop_, "cannot grow after shutdown began");
  while (static_cast<int>(workers_.size()) < num_threads) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  TOL_ENSURE(task != nullptr, "cannot submit an empty task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    TOL_ENSURE(!stop_, "cannot submit after shutdown began");
    queue_.push_back(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain semantics: exit only once the queue is empty, even when
      // stop_ was raised with tasks still pending.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace tolerance::util
