#include "src/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/util/logging.h"

namespace espresso {

namespace {
thread_local bool t_on_worker = false;  // set by WorkerLoop: a nested ParallelFor runs inline
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
    if (queued_ == ring_.size()) {
      // Full: unwrap the queue into a ring twice the size. Moving a std::function
      // moves its callable's storage, so this allocates only the new ring.
      std::vector<Entry> grown(std::max<size_t>(16, 2 * ring_.size()));
      for (size_t i = 0; i < queued_; ++i) {
        grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
      }
      ring_.swap(grown);
      head_ = 0;
    }
    Entry& entry = ring_[(head_ + queued_) & (ring_.size() - 1)];
    entry.task = std::move(task);
    entry.group = &group;
    ++queued_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Withdraw(TaskGroup& group) {
  size_t withdrawn = 0;
  {
    // Drop the group's entries and close the gaps, keeping the other entries in
    // order, so withdrawn tasks take no room in the ring.
    std::unique_lock<std::mutex> lock(mu_);
    const size_t mask = ring_.size() - 1;
    size_t kept = 0;
    for (size_t i = 0; i < queued_; ++i) {
      Entry& entry = ring_[(head_ + i) & mask];
      if (entry.group == &group) {
        entry.task = nullptr;
        ++withdrawn;
      } else {
        if (kept != i) {
          ring_[(head_ + kept) & mask] = std::move(entry);
        }
        ++kept;
      }
    }
    queued_ = kept;
  }
  for (size_t i = 0; i < withdrawn; ++i) {
    group.TaskFinished();
  }
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    TaskGroup* group = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
      if (queued_ == 0) {
        return;  // shutdown with drained queue
      }
      Entry& entry = ring_[head_];
      task = std::move(entry.task);
      group = entry.group;
      head_ = (head_ + 1) & (ring_.size() - 1);
      --queued_;
    }
    task();
    group->TaskFinished();
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = new ThreadPool(UsableCpus());  // never destroyed
  return *pool;
}

namespace internal {

void ParallelRun(size_t width, size_t count, IndexRunner run, const void* fn) {
  const size_t slots = std::min(std::max<size_t>(width, 1), count);
  if (slots <= 1 || t_on_worker) {
    for (size_t i = 0; i < count; ++i) {
      run(fn, i, 0);
    }
    return;
  }
  // Each slot claims indices from one counter. A task captures a pointer to this
  // frame's job and its slot: 16 trivially copyable bytes, which std::function stores
  // inline.
  struct Job {
    IndexRunner run;
    const void* fn;
    size_t count;
    std::atomic<size_t> next{0};

    void Drain(size_t slot) {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        run(fn, i, slot);
      }
    }
  };
  Job job{run, fn, count};
  TaskGroup group;
  ThreadPool& pool = GlobalThreadPool();
  for (size_t slot = 1; slot < slots; ++slot) {
    pool.Submit(group, [&job, slot] { job.Drain(slot); });
  }
  job.Drain(0);
  // Every index is claimed, so a task no worker has started yet would find nothing:
  // take it back instead of waiting for a worker to get to it.
  pool.Withdraw(group);
  group.Wait();
}

}  // namespace internal

}  // namespace espresso
