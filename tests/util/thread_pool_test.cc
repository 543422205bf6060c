#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/fault/fault_plan.h"

namespace espresso {
namespace {

// Every index runs once, and in a slot below min(width, count, workers + 1) that no
// other thread holds at the same time: a one-worker pool has a single worker slot to
// fill, whatever the width.
TEST(ThreadPool, RunsAllTasks) {
  for (const size_t workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    for (const size_t width : {2, 3, 8}) {
      for (const size_t count : {0, 1, 2, 7, 100}) {
        const size_t slots = std::min({width, count, workers + 1});
        const std::unique_ptr<std::atomic<int>[]> runs(new std::atomic<int>[count]());
        const std::unique_ptr<std::atomic<bool>[]> busy(new std::atomic<bool>[width]());
        pool.ParallelFor(width, count, [&](size_t i, size_t slot) {
          ASSERT_LT(slot, slots);
          EXPECT_FALSE(busy[slot].exchange(true)) << "slot " << slot << " runs twice at once";
          runs[i].fetch_add(1);
          busy[slot].store(false);
        });
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(runs[i].load(), 1) << workers << " workers, width " << width
                                       << ", count " << count << ", index " << i;
        }
      }
    }
  }
}

// The destructor wakes the idle workers and joins them, whether or not the pool ever
// ran a fan-out.
TEST(ThreadPool, DestructorJoinsCleanly) {
  { ThreadPool idle(4); }
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int round = 0; round < 8; ++round) {
      pool.ParallelFor(4, 32, [&](size_t, size_t) { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 8 * 32);
}

TEST(ThreadPool, ZeroWorkersIsRefused) {
  EXPECT_DEATH(ThreadPool{0}, "at least one worker");
}

TEST(ThreadPool, GlobalPoolIsOneHostSizedPool) {
  ThreadPool& pool = GlobalThreadPool();
  EXPECT_EQ(&pool, &GlobalThreadPool());
  EXPECT_EQ(pool.num_threads(), UsableCpus());
  std::atomic<int> counter{0};
  ParallelFor(pool.num_threads() + 1, 16, [&](size_t, size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 16);
}

// An outer fan-out whose indices each block until all have started, so each of its
// workers + 1 indices runs on its own thread: the caller and every worker. Each index
// calls ParallelFor wider than the pool. On a worker that call runs inline, as slot 0,
// on that worker: with every worker inside the outer job, a nested call that waited on
// the pool would deadlock here.
TEST(ThreadPool, NestedParallelForRunsInline) {
  const size_t workers = GlobalThreadPool().num_threads();
  const size_t outer = workers + 1;
  const size_t width = workers + 2;  // more slots than the pool has workers
  constexpr size_t kCount = 64;
  std::mutex mu;
  std::condition_variable cv;
  size_t started = 0;
  std::vector<std::thread::id> outer_thread(outer);
  std::vector<size_t> outer_slot(outer);
  std::vector<std::vector<std::thread::id>> inner_thread(outer,
                                                         std::vector<std::thread::id>(kCount));
  std::vector<std::vector<size_t>> inner_slot(outer, std::vector<size_t>(kCount, SIZE_MAX));
  ParallelFor(outer, outer, [&](size_t t, size_t slot) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return started == outer; });
    }
    outer_thread[t] = std::this_thread::get_id();
    outer_slot[t] = slot;
    ParallelFor(width, kCount, [&, t](size_t i, size_t inner) {
      inner_thread[t][i] = std::this_thread::get_id();
      inner_slot[t][i] = inner;
    });
  });
  std::vector<std::thread::id> distinct = outer_thread;
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()) - distinct.begin(),
            static_cast<std::ptrdiff_t>(outer));
  for (size_t t = 0; t < outer; ++t) {
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_NE(inner_slot[t][i], SIZE_MAX) << "index " << t << " inner " << i;
      if (outer_slot[t] != 0) {  // on a worker
        EXPECT_EQ(inner_thread[t][i], outer_thread[t]) << "index " << t << " inner " << i;
        EXPECT_EQ(inner_slot[t][i], 0u) << "index " << t << " inner " << i;
      }
    }
  }
}

// A contention schedule from the fault layer: iterations where a CPU spike is active
// fan out four times the work, so bursts and quiet rounds interleave. Run under TSan,
// any unsynchronized access to the open jobs or their counts shows up as a race.
TEST(ThreadPool, SurvivesFaultDrivenContention) {
  FaultSpec spec;
  spec.seed = 7;
  spec.cpu_contention_probability = 0.5;
  spec.cpu_slowdown = 4.0;
  const FaultPlan plan(spec);
  uint64_t per_index = 0;
  for (int i = 0; i < 1000; ++i) {
    per_index += static_cast<uint64_t>(i) * 2654435761u;
  }
  std::atomic<uint64_t> work{0};
  uint64_t expected = 0;
  for (size_t iteration = 0; iteration < 200; ++iteration) {
    const IterationFaults faults = plan.AtIteration(iteration);
    const size_t indices = faults.cpu_contention_active ? 16 : 4;
    ParallelFor(indices, indices, [&work](size_t, size_t) {
      uint64_t local = 0;
      for (int i = 0; i < 1000; ++i) {
        local += static_cast<uint64_t>(i) * 2654435761u;
      }
      work.fetch_add(local, std::memory_order_relaxed);
    });
    expected += indices * per_index;
  }
  EXPECT_EQ(work.load(), expected);
}

TEST(ThreadPool, ConcurrentPoolsDoNotInterfere) {
  // Two independent pools, each hammered from its own thread.
  std::atomic<int> counter{0};
  auto hammer = [&counter] {
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
      pool.ParallelFor(4, 8, [&counter](size_t, size_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(counter.load(), 2 * 50 * 8);
}

// A caller waits only for the workers inside its own job: B's ParallelFor returns
// while a worker is still blocked inside A's fn, so a pool-wide wait would deadlock
// here. A's slot 0 holds its index until a worker has entered the other one; a worker
// that gets to A first may take both indices, and only its first one blocks.
TEST(ParallelFor, ReturnsWhileAnotherCallersFanOutIsBlocked) {
  std::promise<void> entered;
  std::shared_future<void> entered_future(entered.get_future());
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::atomic<bool> worker_entered{false};
  std::atomic<bool> a_finished{false};
  std::thread a([&] {
    ParallelFor(2, 2, [&](size_t, size_t slot) {
      if (slot == 0) {
        entered_future.wait();
      } else if (!worker_entered.exchange(true)) {
        entered.set_value();
        release_future.wait();
      }
    });
    a_finished.store(true);
  });
  entered_future.wait();
  std::atomic<int> b_done{0};
  ParallelFor(GlobalThreadPool().num_threads() + 1, 64,
              [&](size_t, size_t) { b_done.fetch_add(1); });
  EXPECT_EQ(b_done.load(), 64);
  EXPECT_FALSE(a_finished.load());

  release.set_value();  // only now may A finish
  a.join();
  EXPECT_TRUE(a_finished.load());
}

// TSan-covered: concurrent callers over the one pool, each with its own count, each
// seeing every one of its own indices run exactly once. Mirrors concurrent selections
// fanning out on the process pool.
TEST(ParallelFor, ConcurrentCallersRunOnlyTheirOwnIndices) {
  constexpr size_t kCallers = 8;
  const size_t width = GlobalThreadPool().num_threads() + 1;
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, width] {
      const size_t count = 200 + 17 * c;
      for (int round = 0; round < 3; ++round) {
        std::vector<int> runs(count, 0);
        ParallelFor(width, count, [&runs, count](size_t i, size_t) {
          ASSERT_LT(i, count);
          ++runs[i];
        });
        EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), static_cast<std::ptrdiff_t>(count))
            << "caller " << c << " round " << round;
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
}

// TSan-covered: the job lives on the caller's stack and is gone the moment ParallelFor
// returns, while the last worker out may just have signalled it. 20,000 back-to-back
// fan-outs of short indices put a fresh job at the same stack address each time.
TEST(ParallelFor, BackToBackFanOutsWithTheJobOnTheCallersStack) {
  std::atomic<uint64_t> runs{0};
  for (int round = 0; round < 20000; ++round) {
    ParallelFor(4, 4, [&runs](size_t, size_t) { runs.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(runs.load(), 4u * 20000);
}

}  // namespace
}  // namespace espresso
