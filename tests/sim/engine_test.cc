#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace espresso {
namespace {

TEST(SimEngine, SingleTask) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId t = engine.AddTask("t", r, 2.5, {}, 0);
  engine.Run();
  EXPECT_EQ(engine.TaskStart(t), 0.0);
  EXPECT_EQ(engine.TaskEnd(t), 2.5);
  EXPECT_EQ(engine.Makespan(), 2.5);
}

TEST(SimEngine, ChainSerializesOnDependencies) {
  SimEngine engine;
  const ResourceId a = engine.AddSerialResource("a");
  const ResourceId b = engine.AddSerialResource("b");
  const TaskId t0 = engine.AddTask("t0", a, 1.0, {}, 0);
  const TaskId t1 = engine.AddTask("t1", b, 2.0, {t0}, 0);
  const TaskId t2 = engine.AddTask("t2", a, 1.0, {t1}, 0);
  engine.Run();
  EXPECT_EQ(engine.TaskStart(t1), 1.0);
  EXPECT_EQ(engine.TaskStart(t2), 3.0);
  EXPECT_EQ(engine.Makespan(), 4.0);
}

TEST(SimEngine, SerialResourceContention) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId t0 = engine.AddTask("t0", r, 1.0, {}, 0);
  const TaskId t1 = engine.AddTask("t1", r, 1.0, {}, 1);
  engine.Run();
  // Both ready at 0; priority 0 runs first.
  EXPECT_EQ(engine.TaskEnd(t0), 1.0);
  EXPECT_EQ(engine.TaskStart(t1), 1.0);
}

TEST(SimEngine, PriorityBreaksTies) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId low = engine.AddTask("low", r, 1.0, {}, 5);
  const TaskId high = engine.AddTask("high", r, 1.0, {}, 1);
  engine.Run();
  EXPECT_EQ(engine.TaskStart(high), 0.0);
  EXPECT_EQ(engine.TaskStart(low), 1.0);
}

TEST(SimEngine, PoolRunsLanesInParallel) {
  SimEngine engine;
  const ResourceId pool = engine.AddPoolResource("pool", 2);
  const TaskId t0 = engine.AddTask("t0", pool, 3.0, {}, 0);
  const TaskId t1 = engine.AddTask("t1", pool, 3.0, {}, 1);
  const TaskId t2 = engine.AddTask("t2", pool, 3.0, {}, 2);
  engine.Run();
  EXPECT_EQ(engine.TaskStart(t0), 0.0);
  EXPECT_EQ(engine.TaskStart(t1), 0.0);
  EXPECT_EQ(engine.TaskStart(t2), 3.0);
  EXPECT_EQ(engine.Makespan(), 6.0);
}

TEST(SimEngine, LatecomerWithBetterPriorityWaitsForRunningTask) {
  // Non-preemptive: a higher-priority task arriving mid-execution waits.
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const ResourceId other = engine.AddSerialResource("other");
  const TaskId blocker = engine.AddTask("blocker", r, 10.0, {}, 5);
  const TaskId trigger = engine.AddTask("trigger", other, 1.0, {}, 0);
  const TaskId urgent = engine.AddTask("urgent", r, 1.0, {trigger}, 0);
  engine.Run();
  EXPECT_EQ(engine.TaskEnd(blocker), 10.0);
  EXPECT_EQ(engine.TaskStart(urgent), 10.0);
}

TEST(SimEngine, QueuedHigherPriorityOvertakesQueuedLower) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  engine.AddTask("running", r, 5.0, {}, 0);
  const TaskId low = engine.AddTask("low", r, 1.0, {}, 9);
  const TaskId high = engine.AddTask("high", r, 1.0, {}, 1);
  engine.Run();
  // When the running task finishes at 5.0, 'high' goes first despite later id.
  EXPECT_EQ(engine.TaskStart(high), 5.0);
  EXPECT_EQ(engine.TaskStart(low), 6.0);
}

TEST(SimEngine, ZeroDurationTasks) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId t0 = engine.AddTask("t0", r, 0.0, {}, 0);
  const TaskId t1 = engine.AddTask("t1", r, 1.0, {t0}, 0);
  engine.Run();
  EXPECT_EQ(engine.TaskEnd(t0), 0.0);
  EXPECT_EQ(engine.TaskEnd(t1), 1.0);
}

TEST(SimEngine, DiamondDependencies) {
  SimEngine engine;
  const ResourceId r = engine.AddPoolResource("pool", 4);
  const TaskId root = engine.AddTask("root", r, 1.0, {}, 0);
  const TaskId left = engine.AddTask("left", r, 2.0, {root}, 0);
  const TaskId right = engine.AddTask("right", r, 3.0, {root}, 0);
  const TaskId join = engine.AddTask("join", r, 1.0, {left, right}, 0);
  engine.Run();
  EXPECT_EQ(engine.TaskStart(join), 4.0);
  EXPECT_EQ(engine.Makespan(), 5.0);
}

TEST(SimEngine, PoolWithMoreLanesThanTasks) {
  SimEngine engine;
  const ResourceId pool = engine.AddPoolResource("pool", 16);
  const TaskId a = engine.AddTask("a", pool, 2.0, {}, 0);
  const TaskId b = engine.AddTask("b", pool, 3.0, {}, 0);
  engine.Run();
  EXPECT_EQ(engine.TaskStart(a), 0.0);
  EXPECT_EQ(engine.TaskStart(b), 0.0);
  EXPECT_EQ(engine.Makespan(), 3.0);
}

TEST(SimEngine, EmptyDagRuns) {
  SimEngine engine;
  engine.AddSerialResource("r");
  engine.Run();
  EXPECT_EQ(engine.Makespan(), 0.0);
  EXPECT_EQ(engine.TaskCount(), 0u);
}

TEST(SimEngine, RecordsMatchSchedule) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("gpu");
  engine.AddTask("a", r, 1.5, {}, 0);
  engine.AddTask("b", r, 0.5, {}, 1);
  engine.Run();
  const auto records = engine.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_EQ(records[0].end, 1.5);
  EXPECT_EQ(records[1].start, 1.5);
  EXPECT_EQ(engine.ResourceName(r), "gpu");
}

TEST(SimEngine, DeterministicAcrossRuns) {
  auto build_and_run = [] {
    SimEngine engine;
    const ResourceId r = engine.AddSerialResource("r");
    const ResourceId pool = engine.AddPoolResource("p", 2);
    TaskId prev = -1;
    for (int i = 0; i < 50; ++i) {
      const std::vector<TaskId> deps =
          prev >= 0 ? std::vector<TaskId>{prev} : std::vector<TaskId>{};
      prev = engine.AddTask("", i % 2 == 0 ? r : pool, 0.1 * (i % 7 + 1), deps, i % 3);
    }
    engine.Run();
    return engine.Makespan();
  };
  EXPECT_EQ(build_and_run(), build_and_run());
}

TEST(SimEngine, ResetReusesEngineExactly) {
  // The evaluation-context reuse path: one engine, many Run() cycles. Reset() must
  // return the engine to a freshly-built state (task-free, lane clocks rewound, speed
  // factors back to 1.0) while keeping the resources, so a reused engine schedules
  // byte-identically to a new one.
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("gpu");
  const ResourceId pool = engine.AddPoolResource("cpu", 2);

  auto build = [&] {
    TaskId prev = SimEngine::kNoDependency;
    for (int i = 0; i < 20; ++i) {
      prev = engine.AddChainTask(i % 3 == 0 ? pool : r, 0.25 * (i % 5 + 1), prev,
                                 i % 4);
    }
  };
  build();
  engine.Run();
  const double first = engine.Makespan();
  ASSERT_GT(first, 0.0);

  engine.Reset();
  EXPECT_EQ(engine.TaskCount(), 0u);
  EXPECT_EQ(engine.ResourceName(r), "gpu");  // resources survive Reset()
  build();
  engine.Run();
  EXPECT_EQ(engine.Makespan(), first);

  // Speed factors are rewound too: a degraded run in between must not leak into the
  // next cycle.
  engine.Reset();
  engine.SetResourceSpeedFactor(r, 0.5);
  build();
  engine.Run();
  EXPECT_GT(engine.Makespan(), first);
  engine.Reset();
  build();
  engine.Run();
  EXPECT_EQ(engine.Makespan(), first);
}

TEST(SimEngine, ChainTasksMatchAddTaskAfter) {
  // AddChainTask is AddTaskAfter minus the name and argument checks; the schedules
  // must be identical.
  auto run = [](bool chain) {
    SimEngine engine;
    const ResourceId r = engine.AddSerialResource("r");
    TaskId prev = SimEngine::kNoDependency;
    for (int i = 0; i < 10; ++i) {
      prev = chain ? engine.AddChainTask(r, 1.0 + i, prev, -i)
                   : engine.AddTaskAfter("", r, 1.0 + i, prev, -i);
    }
    engine.Run();
    return engine.Makespan();
  };
  EXPECT_EQ(run(true), run(false));
}

// A DAG shaped like a training timeline: a backward-compute chain on a serial "gpu"
// (tasks 0..n-1, priority i), then each tensor's op chain hanging off its compute task
// with priority i, over the gpu, a two-lane "cpu" pool and two serial links. Integer
// durations make many completions share a timestamp.
struct TimelineDag {
  size_t tensors = 0;
  // ops[i] = (resource, duration) of tensor i's chain, in order.
  std::vector<std::vector<std::pair<ResourceId, double>>> ops;
};

TimelineDag MakeTimelineDag(size_t tensors, unsigned salt) {
  TimelineDag dag;
  dag.tensors = tensors;
  dag.ops.resize(tensors);
  for (size_t i = 0; i < tensors; ++i) {
    const size_t count = (i * 7 + salt) % 4;  // some tensors have no ops at all
    for (size_t k = 0; k < count; ++k) {
      const auto resource = static_cast<ResourceId>((i + k * 3 + salt) % 4);
      dag.ops[i].emplace_back(resource, static_cast<double>((i + 2 * k + salt) % 3));
    }
  }
  return dag;
}

void AddResources(SimEngine& engine) {
  engine.AddSerialResource("gpu");
  engine.AddPoolResource("cpu", 2);
  engine.AddSerialResource("intra");
  engine.AddSerialResource("inter");
}

void AddComputeChain(const TimelineDag& dag, SimEngine& engine) {
  for (size_t i = 0; i < dag.tensors; ++i) {
    engine.AddChainTask(0, 1.0 + static_cast<double>(i % 2),
                        i == 0 ? SimEngine::kNoDependency : static_cast<TaskId>(i - 1),
                        static_cast<int>(i));
  }
}

void AddTensorOps(const TimelineDag& dag, size_t i, SimEngine& engine) {
  TaskId prev = static_cast<TaskId>(i);
  for (const auto& [resource, duration] : dag.ops[i]) {
    prev = engine.AddChainTask(resource, duration, prev, static_cast<int>(i));
  }
}

TEST(SimEngine, ResumeFromStoppedCopyMatchesOneShotRun) {
  for (unsigned salt = 0; salt < 4; ++salt) {
    const TimelineDag dag = MakeTimelineDag(12, salt);
    SimEngine one_shot;
    AddResources(one_shot);
    AddComputeChain(dag, one_shot);
    for (size_t i = 0; i < dag.tensors; ++i) {
      AddTensorOps(dag, i, one_shot);
    }
    one_shot.Run();

    for (size_t stop = 0; stop < dag.tensors; ++stop) {
      SCOPED_TRACE("salt " + std::to_string(salt) + " stop " + std::to_string(stop));
      // The prefix: every compute task plus the ops of the tensors before `stop`.
      SimEngine prefix;
      AddResources(prefix);
      AddComputeChain(dag, prefix);
      for (size_t i = 0; i < stop; ++i) {
        AddTensorOps(dag, i, prefix);
      }
      prefix.RunUntil(static_cast<TaskId>(stop));
      // Two resumes from the same stopped engine: a copy must not disturb it.
      for (int round = 0; round < 2; ++round) {
        SimEngine resumed;
        AddResources(resumed);  // copy-assignment over an engine with its own storage
        resumed = prefix;
        for (size_t i = stop; i < dag.tensors; ++i) {
          AddTensorOps(dag, i, resumed);
        }
        resumed.Run();
        ASSERT_EQ(resumed.TaskCount(), one_shot.TaskCount());
        for (TaskId id = 0; id < static_cast<TaskId>(one_shot.TaskCount()); ++id) {
          EXPECT_EQ(resumed.TaskStart(id), one_shot.TaskStart(id)) << "task " << id;
          EXPECT_EQ(resumed.TaskEnd(id), one_shot.TaskEnd(id)) << "task " << id;
        }
        EXPECT_EQ(resumed.Makespan(), one_shot.Makespan());
      }
    }
  }
}

TEST(SimEngine, RunUntilAdvancesAStoppedEngineInPlace) {
  // Stop at tensor 2, append tensors 2..6, stop again at 7, then finish: the same
  // schedule as one stop at 7.
  const TimelineDag dag = MakeTimelineDag(10, 1);
  SimEngine direct;
  AddResources(direct);
  AddComputeChain(dag, direct);
  for (size_t i = 0; i < 7; ++i) {
    AddTensorOps(dag, i, direct);
  }
  direct.RunUntil(7);

  SimEngine stepped;
  AddResources(stepped);
  AddComputeChain(dag, stepped);
  for (size_t i = 0; i < 2; ++i) {
    AddTensorOps(dag, i, stepped);
  }
  stepped.RunUntil(2);
  stepped.RunUntil(2);  // already there: a no-op
  for (size_t i = 2; i < 7; ++i) {
    AddTensorOps(dag, i, stepped);
  }
  stepped.RunUntil(7);

  for (SimEngine* engine : {&direct, &stepped}) {
    for (size_t i = 7; i < dag.tensors; ++i) {
      AddTensorOps(dag, i, *engine);
    }
    engine->Run();
  }
  ASSERT_EQ(direct.TaskCount(), stepped.TaskCount());
  for (TaskId id = 0; id < static_cast<TaskId>(direct.TaskCount()); ++id) {
    EXPECT_EQ(stepped.TaskStart(id), direct.TaskStart(id)) << "task " << id;
  }
  EXPECT_EQ(stepped.Makespan(), direct.Makespan());
}

TEST(SimEngine, ResetAfterRunUntilDropsPendingWork) {
  // Stopped with tasks still queued on the pool and the gpu; Reset() must discard
  // them so the next cycle schedules exactly like a fresh engine.
  SimEngine engine;
  const ResourceId gpu = engine.AddSerialResource("gpu");
  const ResourceId pool = engine.AddPoolResource("cpu", 2);
  const TaskId root = engine.AddTask("root", gpu, 1.0, {}, 0);
  for (int k = 0; k < 5; ++k) {
    engine.AddTask("", pool, 2.0, {root}, k);
    engine.AddTask("", gpu, 1.0, {root}, k);
  }
  const TaskId last = engine.AddTask("last", gpu, 1.0, {root}, 9);
  engine.RunUntil(last - 1);
  engine.Reset();
  EXPECT_EQ(engine.TaskCount(), 0u);

  auto build = [](SimEngine& e, ResourceId r, ResourceId p) {
    TaskId prev = SimEngine::kNoDependency;
    for (int i = 0; i < 8; ++i) {
      prev = e.AddChainTask(i % 2 == 0 ? r : p, 0.5 * (i + 1), prev, i);
    }
  };
  build(engine, gpu, pool);
  engine.Run();
  SimEngine fresh;
  const ResourceId fresh_gpu = fresh.AddSerialResource("gpu");
  const ResourceId fresh_pool = fresh.AddPoolResource("cpu", 2);
  build(fresh, fresh_gpu, fresh_pool);
  fresh.Run();
  EXPECT_EQ(engine.Makespan(), fresh.Makespan());
}

TEST(SimEngineDeathTest, ResumedRunStillRequiresEveryTaskToComplete) {
  // A task appended after its dependency completed can never run; the end-of-Run
  // check catches it on a resumed engine as on a one-shot one.
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId a = engine.AddTask("a", r, 1.0, {}, 0);
  const TaskId b = engine.AddTask("b", r, 1.0, {a}, 0);
  engine.RunUntil(b);
  engine.AddTaskAfter("orphan", r, 1.0, a, 0);
  EXPECT_DEATH(engine.Run(), "unreachable task");
}

TEST(SimEngineDeathTest, RunUntilACompletedTaskDies) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId a = engine.AddTask("a", r, 1.0, {}, 0);
  const TaskId b = engine.AddTask("b", r, 1.0, {a}, 0);
  engine.RunUntil(b);
  EXPECT_DEATH(engine.RunUntil(a), "completed earlier");
}

TEST(SimEngineDeathTest, RootTaskOnStoppedEngineRejected) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  const TaskId a = engine.AddTask("a", r, 1.0, {}, 0);
  engine.RunUntil(a);
  EXPECT_DEATH(engine.AddTask("root", r, 1.0, {}, 0), "needs a dependency");
}

TEST(SimEngineDeathTest, ForwardDependencyRejected) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  EXPECT_DEATH(engine.AddTask("bad", r, 1.0, {5}, 0), "");
}

TEST(SimEngineDeathTest, NegativeDurationRejected) {
  SimEngine engine;
  const ResourceId r = engine.AddSerialResource("r");
  EXPECT_DEATH(engine.AddTask("bad", r, -1.0, {}, 0), "");
}

}  // namespace
}  // namespace espresso
