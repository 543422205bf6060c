// The process's one worker pool and its one fan-out. GlobalThreadPool() is built on
// first use with UsableCpus() workers and is never destroyed (like
// obs::GlobalMetrics()).
//
// ParallelFor is how the program fans work out: every selector scores its cache
// misses through it, and the strategy executor runs an op's groups, members, sum
// blocks and decodes through it. The calling thread works as slot 0, pool tasks under
// a TaskGroup on its own stack as the other slots, and every slot takes the next
// unclaimed index until none is left, so a worker that starts late or is descheduled
// leaves its share to the others. Called on a pool worker it runs inline, so no pool
// task ever waits on the pool and TaskGroup::Wait simply blocks.
//
// A client submits against its own TaskGroup and waits on that group only, so
// concurrent clients complete independently of each other's tasks. Submit allocates
// nothing once the queue has grown to its high-water mark, as long as the task fits
// std::function's inline buffer (ParallelFor's tasks do), so warm fan-outs keep
// the executor's steady state allocation-free.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace espresso {

// The number of CPUs this process may run on: the size of its affinity mask
// (sched_getaffinity), or max(1, std::thread::hardware_concurrency()) when the mask
// cannot be read. Under `taskset -c 0` it is 1, whatever the host has.
size_t UsableCpus();

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
  // must outlive the task's execution. Allocates only to grow the queue past its
  // high-water mark (and when `task` itself holds its callable on the heap).
  void Submit(TaskGroup& group, std::function<void()> task);

  // Takes back the group's queued tasks that no worker has started: they never run,
  // and the group stops counting them. For tasks that would find nothing left to do.
  void Withdraw(TaskGroup& group);

  size_t num_threads() const { return threads_.size(); }

 private:
  struct Entry {
    std::function<void()> task;
    TaskGroup* group = nullptr;
  };

  void WorkerLoop();

  std::vector<std::thread> threads_;
  // A grow-only ring of queued tasks: `queued_` entries from `head_`, wrapping; its
  // size is zero or a power of two.
  std::vector<Entry> ring_;
  size_t head_ = 0;
  size_t queued_ = 0;
  std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;
};

// The process-wide pool; the only ThreadPool the program builds.
ThreadPool& GlobalThreadPool();

namespace internal {
// Runs run(fn, i, slot) for every i in [0, count), as ParallelFor describes.
using IndexRunner = void (*)(const void* fn, size_t i, size_t slot);
void ParallelRun(size_t width, size_t count, IndexRunner run, const void* fn);
}  // namespace internal

// Calls fn(i, slot) once for every i in [0, count) and returns when all calls have
// finished. Up to min(width, count) threads run them: the caller as slot 0 and
// GlobalThreadPool() tasks as slots 1, 2, ...; each takes the next unclaimed index
// until none is left, and then the caller withdraws the tasks no worker has started,
// so it waits only for indices in progress. Which slot runs which index depends on
// timing, so per-slot state (indexed by `slot`, one per concurrent call) must be
// scratch that no result depends on. Runs every index inline as slot 0, in index
// order, when width <= 1 or when the caller is a pool worker.
template <typename Fn>
void ParallelFor(size_t width, size_t count, const Fn& fn) {
  internal::ParallelRun(
      width, count,
      [](const void* erased, size_t i, size_t slot) {
        (*static_cast<const Fn*>(erased))(i, slot);
      },
      &fn);
}

}  // namespace espresso

#endif  // SRC_UTIL_THREAD_POOL_H_
