// Randomized scheduling invariants: for arbitrary layered DAGs over mixed
// serial/pool resources, the engine's schedule must satisfy
//   (1) every task starts at or after all of its dependencies end,
//   (2) a resource never runs more tasks concurrently than it has lanes,
//   (3) work conservation: a task never waits while a lane it could use is idle
//       (checked as: start == max(ready, some-lane-free-time)),
//   (4) determinism across identical builds,
//   (5) stopping with RunUntil at any task, copying the stopped engine and finishing
//       the copy reproduces the one-shot schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/sim/engine.h"
#include "src/util/rng.h"

namespace espresso {
namespace {

struct FuzzTask {
  ResourceId resource;
  double duration;
  std::vector<TaskId> deps;
  int priority;
};

struct FuzzCase {
  std::vector<size_t> lanes;  // one entry per resource
  std::vector<FuzzTask> tasks;
};

FuzzCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase c;
  const auto resources = static_cast<size_t>(rng.UniformInt(1, 4));
  for (size_t r = 0; r < resources; ++r) {
    c.lanes.push_back(static_cast<size_t>(rng.UniformInt(1, 3)));
  }
  const auto n = static_cast<size_t>(rng.UniformInt(1, 60));
  for (size_t i = 0; i < n; ++i) {
    FuzzTask t;
    t.resource = static_cast<ResourceId>(rng.UniformInt(0, static_cast<int64_t>(resources) - 1));
    t.duration = rng.Uniform(0.0, 2.0);
    t.priority = static_cast<int>(rng.UniformInt(0, 5));
    if (i > 0) {
      const auto deps = static_cast<size_t>(rng.UniformInt(0, 2));
      for (size_t d = 0; d < deps; ++d) {
        t.deps.push_back(static_cast<TaskId>(rng.UniformInt(0, static_cast<int64_t>(i) - 1)));
      }
      std::sort(t.deps.begin(), t.deps.end());
      t.deps.erase(std::unique(t.deps.begin(), t.deps.end()), t.deps.end());
    }
    c.tasks.push_back(std::move(t));
  }
  return c;
}

SimEngine BuildCase(const FuzzCase& c) {
  SimEngine engine;
  for (size_t r = 0; r < c.lanes.size(); ++r) {
    engine.AddPoolResource("r" + std::to_string(r), c.lanes[r]);
  }
  for (const FuzzTask& t : c.tasks) {
    engine.AddTask("", t.resource, t.duration, t.deps, t.priority);
  }
  return engine;
}

double RunCase(const FuzzCase& c, std::vector<TaskRecord>* records) {
  SimEngine engine = BuildCase(c);
  engine.Run();
  *records = engine.Records();
  return engine.Makespan();
}

class EngineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzz, ScheduleInvariantsHold) {
  const FuzzCase c = MakeCase(GetParam());
  std::vector<TaskRecord> records;
  const double makespan = RunCase(c, &records);
  ASSERT_EQ(records.size(), c.tasks.size());

  // (1) dependencies respected.
  for (size_t i = 0; i < c.tasks.size(); ++i) {
    for (TaskId dep : c.tasks[i].deps) {
      EXPECT_GE(records[i].start, records[dep].end - 1e-12) << "task " << i;
    }
    EXPECT_NEAR(records[i].end - records[i].start, c.tasks[i].duration, 1e-12);
    EXPECT_LE(records[i].end, makespan + 1e-12);
  }

  // (2) lane capacity respected: sweep each resource's schedule.
  for (size_t r = 0; r < c.lanes.size(); ++r) {
    std::vector<std::pair<double, int>> events;  // (time, +1/-1)
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].resource == static_cast<ResourceId>(r) &&
          records[i].end > records[i].start) {
        events.push_back({records[i].start, +1});
        events.push_back({records[i].end, -1});
      }
    }
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) {
        return a.first < b.first;
      }
      return a.second < b.second;  // process ends before starts at equal times
    });
    int load = 0;
    for (const auto& [time, delta] : events) {
      load += delta;
      EXPECT_LE(load, static_cast<int>(c.lanes[r])) << "resource " << r << " at " << time;
      EXPECT_GE(load, 0);
    }
  }

  // (3) no gratuitous idling: each task starts exactly at its ready time, or at a
  // moment when its resource had just been saturated (some task on that resource ends
  // exactly at its start).
  for (size_t i = 0; i < c.tasks.size(); ++i) {
    double ready = 0.0;
    for (TaskId dep : c.tasks[i].deps) {
      ready = std::max(ready, records[dep].end);
    }
    if (records[i].start > ready + 1e-12) {
      bool lane_freed_then = false;
      for (size_t j = 0; j < records.size(); ++j) {
        if (j != i && records[j].resource == records[i].resource &&
            std::abs(records[j].end - records[i].start) < 1e-12) {
          lane_freed_then = true;
          break;
        }
      }
      EXPECT_TRUE(lane_freed_then)
          << "task " << i << " idled from " << ready << " to " << records[i].start;
    }
  }

  // (4) determinism.
  std::vector<TaskRecord> again;
  EXPECT_EQ(RunCase(c, &again), makespan);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(again[i].start, records[i].start);
    EXPECT_EQ(again[i].end, records[i].end);
  }
}

TEST_P(EngineFuzz, StoppedCopyResumesToTheOneShotSchedule) {
  const FuzzCase c = MakeCase(GetParam());
  std::vector<TaskRecord> expected;
  const double makespan = RunCase(c, &expected);
  const SimEngine built = BuildCase(c);
  for (TaskId stop = 0; stop < static_cast<TaskId>(c.tasks.size()); ++stop) {
    SimEngine stopped = built;
    stopped.RunUntil(stop);
    SimEngine resumed = stopped;
    resumed.Run();
    EXPECT_EQ(resumed.Makespan(), makespan) << "stop " << stop;
    const std::vector<TaskRecord> records = resumed.Records();
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].start, expected[i].start) << "stop " << stop << " task " << i;
      EXPECT_EQ(records[i].end, expected[i].end) << "stop " << stop << " task " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace espresso
