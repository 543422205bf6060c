// The process's one worker pool and its one fan-out. GlobalThreadPool() is built on
// the first ParallelFor that fans out, with UsableCpus() workers, and is never
// destroyed (like obs::GlobalMetrics()).
//
// ParallelFor is how the program fans work out, and the only work a pool runs: every
// selector scores its cache misses through it, and the strategy executor runs an op's
// groups, members, sum blocks and decodes through it. A call keeps its job on its own
// stack and links it into the pool's list of open jobs; idle workers join the oldest
// open job. The caller and the workers that joined take the next unclaimed index until
// none is left, so a worker that starts late or is descheduled leaves its share to the
// others. Then the caller unlinks the job and waits, under the pool's one mutex, only
// for the workers still inside it. Nothing is queued, so a fan-out allocates nothing.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace espresso {

// The number of CPUs this process may run on: the size of its affinity mask
// (sched_getaffinity), or max(1, std::thread::hardware_concurrency()) when the mask
// cannot be read. Under `taskset -c 0` it is 1, whatever the host has.
size_t UsableCpus();

namespace internal {
// Calls the type-erased fn(i, slot).
using IndexRunner = void (*)(const void* fn, size_t i, size_t slot);
template <typename Fn>
void RunIndex(const void* fn, size_t i, size_t slot) {
  (*static_cast<const Fn*>(fn))(i, slot);
}
// ParallelFor's body: runs inline when width or count is at most 1 (building no pool),
// and on GlobalThreadPool() otherwise.
void ParallelRun(size_t width, size_t count, IndexRunner run, const void* fn);
}  // namespace internal

class ThreadPool {
 public:
  // Starts `num_threads` (at least one) workers.
  explicit ThreadPool(size_t num_threads);
  // Joins the workers. No ParallelFor may be running on the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // ParallelFor (below) on this pool rather than GlobalThreadPool().
  template <typename Fn>
  void ParallelFor(size_t width, size_t count, const Fn& fn) {
    Run(width, count, &internal::RunIndex<Fn>, &fn);
  }

 private:
  friend void internal::ParallelRun(size_t, size_t, internal::IndexRunner, const void*);
  struct Job;

  void Run(size_t width, size_t count, internal::IndexRunner run, const void* fn);
  void Close(Job& job);
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;  // guards the fields below and the open jobs' slot and worker counts
  std::condition_variable work_cv_;  // a job was opened, or the pool shuts down
  Job* open_ = nullptr;  // the oldest open job; each links to the next newer one
  bool shutdown_ = false;
};

// The process-wide pool; the only ThreadPool the program builds.
ThreadPool& GlobalThreadPool();

// Calls fn(i, slot) once for every i in [0, count) and returns when all calls have
// finished. Up to min(width, count, workers + 1) threads run them: the caller as slot 0
// and GlobalThreadPool() workers as slots 1, 2, ..., in the order they join; each takes
// the next unclaimed index until none is left. Once every index is claimed no worker
// joins, so a slot that no worker has taken never runs, and the caller waits only for
// indices in progress. Which slot runs which index depends on timing, so per-slot state
// (indexed by `slot`, one per concurrent call) must be scratch that no result depends
// on. Runs every index inline as slot 0, in index order, when width <= 1 or when the
// caller is a pool worker. Allocates nothing.
template <typename Fn>
void ParallelFor(size_t width, size_t count, const Fn& fn) {
  internal::ParallelRun(width, count, &internal::RunIndex<Fn>, &fn);
}

}  // namespace espresso

#endif  // SRC_UTIL_THREAD_POOL_H_
