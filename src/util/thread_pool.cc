#include "src/util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace espresso {

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

size_t TaskGroup::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

void TaskGroup::TaskAdded() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_;
}

void TaskGroup::TaskFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  --pending_;
  if (pending_ == 0) {
    // Notify while still holding mu_: the moment a waiter can observe
    // pending_ == 0 it may destroy this group (ParallelFor keeps it on the
    // stack), so the notifier must be done with cv_ before releasing the lock.
    cv_.notify_all();
  }
}

ThreadPool::ThreadPool(size_t num_threads) {
  ESP_CHECK_GT(num_threads, 0u) << "a ThreadPool needs at least one worker";
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
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(TaskGroup& group, std::function<void()> task) {
  // The group count is raised BEFORE the task is queued: a Wait() racing with this
  // Submit either sees the pending task or runs before the submission — it can never
  // miss a task that was already handed to the pool.
  group.TaskAdded();
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back([&group, task = std::move(task)] {
      task();
      group.TaskFinished();
    });
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));  // never destroyed
  return *pool;
}

}  // namespace espresso
