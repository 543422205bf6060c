#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "src/fault/fault_plan.h"

namespace espresso {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit(group, [&] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> counter{0};
  pool.Submit(group, [&] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit(group, [&] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 2);
}

// The destructor runs every queued task before joining, even one nobody waited on.
TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  TaskGroup group;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.Submit(group, [&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 32);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(ThreadPool, ZeroWorkersIsRefused) {
  EXPECT_DEATH(ThreadPool{0}, "at least one worker");
}

TEST(ThreadPool, GlobalPoolIsOneHostSizedPool) {
  ThreadPool& pool = GlobalThreadPool();
  EXPECT_EQ(&pool, &GlobalThreadPool());
  EXPECT_EQ(pool.num_threads(), std::max(1u, std::thread::hardware_concurrency()));
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit(group, [&] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 16);
}

// A contention schedule from the fault layer: iterations where a CPU spike is active
// submit four times the work, so bursts and quiet rounds interleave. Run under TSan,
// any unsynchronized access in the pool's queue or the group counts shows up as a race.
TEST(ThreadPool, SurvivesFaultDrivenContention) {
  FaultSpec spec;
  spec.seed = 7;
  spec.cpu_contention_probability = 0.5;
  spec.cpu_slowdown = 4.0;
  const FaultPlan plan(spec);
  ThreadPool pool(4);
  std::atomic<uint64_t> work{0};
  for (size_t iteration = 0; iteration < 200; ++iteration) {
    const IterationFaults faults = plan.AtIteration(iteration);
    const size_t tasks = faults.cpu_contention_active ? 16 : 4;
    TaskGroup group;
    for (size_t t = 0; t < tasks; ++t) {
      pool.Submit(group, [&work] {
        uint64_t local = 0;
        for (int i = 0; i < 1000; ++i) {
          local += static_cast<uint64_t>(i) * 2654435761u;
        }
        work.fetch_add(local, std::memory_order_relaxed);
      });
    }
    group.Wait();  // synchronous-iteration barrier
  }
  EXPECT_GT(work.load(), 0u);
}

TEST(ThreadPool, ConcurrentPoolsDoNotInterfere) {
  // Two independent pools, each hammered from its own thread.
  std::atomic<int> counter{0};
  auto hammer = [&counter] {
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
      TaskGroup group;
      for (int t = 0; t < 8; ++t) {
        pool.Submit(group, [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
      group.Wait();
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(counter.load(), 2 * 50 * 8);
}

TEST(TaskGroup, WaitCoversOwnTasks) {
  ThreadPool pool(4);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit(group, [&] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 64);
  // Reusable after draining.
  pool.Submit(group, [&] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 65);
}

// Group A's Wait() must return while group B's task is still running: B's task
// finishes only AFTER A's wait returns, so a pool-global wait would deadlock here.
TEST(TaskGroup, WaitDoesNotWaitForOtherGroups) {
  ThreadPool pool(2);
  TaskGroup group_a;
  TaskGroup group_b;
  std::promise<void> release_b;
  std::shared_future<void> release_b_future(release_b.get_future());
  std::atomic<bool> b_finished{false};

  pool.Submit(group_b, [&, release_b_future] {
    release_b_future.wait();
    b_finished.store(true);
  });
  std::atomic<int> a_done{0};
  pool.Submit(group_a, [&] { a_done.fetch_add(1); });

  group_a.Wait();  // must not block on group B's still-pending task
  EXPECT_EQ(a_done.load(), 1);
  EXPECT_FALSE(b_finished.load());
  EXPECT_EQ(group_b.pending(), 1u);

  release_b.set_value();  // only now may B finish
  group_b.Wait();
  EXPECT_TRUE(b_finished.load());
  EXPECT_EQ(group_b.pending(), 0u);
}

// TSan-covered: concurrent submitters and waiters over a shared pool, each client
// seeing exactly its own task count. Mirrors concurrent selections fanning out on
// the process pool.
TEST(TaskGroup, ConcurrentGroupsCompleteIndependentlyUnderLoad) {
  ThreadPool pool(4);
  constexpr int kClients = 8;
  constexpr int kTasksPerClient = 200;
  std::vector<std::thread> clients;
  std::atomic<int> total{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        TaskGroup group;
        std::atomic<int> own{0};
        for (int i = 0; i < kTasksPerClient; ++i) {
          pool.Submit(group, [&own, &total] {
            own.fetch_add(1);
            total.fetch_add(1);
          });
        }
        group.Wait();
        EXPECT_EQ(own.load(), kTasksPerClient);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(total.load(), kClients * 3 * kTasksPerClient);
}

// TSan-covered regression: a TaskGroup destroyed the instant Wait() returns
// (the ParallelFor pattern — group on the stack, short-lived tasks). The
// original TaskFinished released mu_ BEFORE notify_all, so a waiter could
// observe pending_ == 0, return, and destroy the group while the worker was
// still about to touch the freed condition variable. Under TSan the old code
// reports a data race on ~TaskGroup within a few thousand rounds.
TEST(TaskGroup, DestroyImmediatelyAfterWaitReturnsIsSafe) {
  ThreadPool pool(4);
  for (int round = 0; round < 20000; ++round) {
    TaskGroup group;
    for (int t = 0; t < 3; ++t) {
      pool.Submit(group, [] {});
    }
    group.Wait();
  }
}

}  // namespace
}  // namespace espresso
