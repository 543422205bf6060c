#include "src/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>

#include "src/util/logging.h"

namespace espresso {

namespace {

thread_local bool t_on_worker = false;  // set by WorkerLoop: a nested ParallelFor runs inline

void RunInline(size_t count, internal::IndexRunner run, const void* fn) {
  for (size_t i = 0; i < count; ++i) {
    run(fn, i, 0);
  }
}

}  // namespace

size_t UsableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) {
      return static_cast<size_t>(cpus);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// One ParallelFor call, on the caller's stack. The caller is slot 0; while the job is
// open (linked into the pool's list), each worker that joins it takes the next slot.
struct ThreadPool::Job {
  internal::IndexRunner run;
  const void* fn;
  size_t count;
  size_t slots;  // min(width, count, workers + 1)
  std::atomic<size_t> next_index{0};
  // Guarded by the pool's mu_.
  size_t next_slot = 1;  // the job is open while next_slot < slots
  size_t inside = 0;     // workers that joined and have not left
  Job* newer = nullptr;  // the next open job, while this one is open
  std::condition_variable left{};  // the last worker inside left

  void Drain(size_t slot) {
    for (size_t i = next_index.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next_index.fetch_add(1, std::memory_order_relaxed)) {
      run(fn, i, slot);
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  ESP_CHECK_GT(num_threads, 0u) << "a ThreadPool needs at least one worker";
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Run(size_t width, size_t count, internal::IndexRunner run, const void* fn) {
  const size_t slots = std::min({width, count, threads_.size() + 1});
  if (slots <= 1 || t_on_worker) {
    RunInline(count, run, fn);
    return;
  }
  Job job{run, fn, count, slots};
  {
    std::lock_guard<std::mutex> lock(mu_);
    Job** link = &open_;
    while (*link != nullptr) {
      link = &(*link)->newer;
    }
    *link = &job;
  }
  for (size_t slot = 1; slot < slots; ++slot) {
    work_cv_.notify_one();
  }
  job.Drain(0);
  std::unique_lock<std::mutex> lock(mu_);
  Close(job);
  job.left.wait(lock, [&job] { return job.inside == 0; });
}

// Every index of `job` is claimed: unlink it if it is still open, so no more workers
// join it. Called under mu_.
void ThreadPool::Close(Job& job) {
  if (job.next_slot == job.slots) {
    return;  // every slot is taken, or the job is closed already
  }
  job.next_slot = job.slots;
  Job** link = &open_;
  while (*link != &job) {
    link = &(*link)->newer;
  }
  *link = job.newer;
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || open_ != nullptr; });
    if (open_ == nullptr) {
      return;  // shut down
    }
    Job& job = *open_;
    const size_t slot = job.next_slot++;
    if (job.next_slot == job.slots) {
      open_ = job.newer;  // its last slot is taken
    }
    ++job.inside;
    lock.unlock();
    job.Drain(slot);
    lock.lock();
    Close(job);
    if (--job.inside == 0) {
      // Notify while still holding mu_: the moment the caller can observe inside == 0
      // it returns, and the job goes with its frame, so the notifier must be done with
      // `left` before releasing the lock.
      job.left.notify_one();
    }
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = new ThreadPool(UsableCpus());  // never destroyed
  return *pool;
}

namespace internal {

void ParallelRun(size_t width, size_t count, IndexRunner run, const void* fn) {
  if (width <= 1 || count <= 1) {
    RunInline(count, run, fn);
    return;
  }
  GlobalThreadPool().Run(width, count, run, fn);
}

}  // namespace internal

}  // namespace espresso
