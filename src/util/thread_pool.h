// The process's one worker pool. GlobalThreadPool() is built on first use with
// max(1, hardware_concurrency()) workers and is never destroyed (like
// obs::GlobalMetrics()); every selector, including the nested forced-compression
// one, scores its cache misses on it.
//
// A client submits against its own TaskGroup and waits on that group only, so
// concurrent clients complete independently of each other's tasks. Clients run on
// request connection threads or a program's main thread, never on a pool worker,
// so no pool task ever waits on another and TaskGroup::Wait simply blocks. A task
// that fanned out again and waited would need Wait to run its group's queued tasks
// on the calling thread ("caller-runs") to avoid deadlock.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace espresso {

// Tracks the in-flight count of one client's tasks across a shared ThreadPool.
// A group may be reused after Wait() returns; it must outlive every task submitted
// against it. Thread-safe: multiple threads may submit against and wait on the same
// group (each waiter wakes when the group drains).
class TaskGroup {
 public:
  TaskGroup() = default;

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Blocks until every task submitted against this group has completed. Tasks other
  // clients submitted to the same pool are ignored.
  void Wait();

  // Tasks submitted against this group that have not finished yet.
  size_t pending() const;

 private:
  friend class ThreadPool;

  void TaskAdded();
  void TaskFinished();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
};

class ThreadPool {
 public:
  // Starts `num_threads` (at least one) workers.
  explicit ThreadPool(size_t num_threads);
  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Queues a task accounted against `group`, so group.Wait() covers it. The group
  // must outlive the task's execution.
  void Submit(TaskGroup& group, std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;
};

// The process-wide pool; the only ThreadPool the program builds.
ThreadPool& GlobalThreadPool();

}  // namespace espresso

#endif  // SRC_UTIL_THREAD_POOL_H_
