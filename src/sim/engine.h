// Deterministic discrete-event engine for deriving training timelines.
//
// The engine executes a DAG of tasks over contended resources:
//   * SerialResource — runs one task at a time (a GPU stream, the intra-machine fabric,
//     the inter-machine NIC). GPU compression kernels and backward-compute kernels share
//     the GPU stream, which is exactly how compression "competes for GPU resources with
//     tensor computation" (§3.1 Reason #1, Figure 2(c)).
//   * PoolResource — k parallel lanes (the host CPU cores used for CPU compression).
//
// A task becomes eligible when all dependencies complete; a free resource picks the
// eligible task with the smallest (priority, id). Everything is deterministic, so a
// strategy's timeline — and therefore F(S) — is a pure function of the inputs.
//
// This sits on the decision algorithm's innermost loop (thousands of timeline
// evaluations per strategy selection), so the task storage is tuned for it: Task is a
// small POD (names live in a side table and are stored only when non-empty), single
// dependencies avoid vectors, the per-task dependent list is inlined for the common
// fan-outs (<= 2), eligible tasks order by one packed 64-bit key, and lane clocks are
// flat arrays rather than heaps (lane counts are tiny).
//
// A simulation can also be stopped and resumed: RunUntil(stop) processes events until
// `stop`'s completion is next, the stopped engine is copied, tasks hanging off
// not-yet-completed tasks are appended to the copy, and Run() finishes it. When no
// appended task could have become eligible before `stop` completes, and the appended
// tasks take the ids a one-shot build would give them, the resumed schedule is
// identical to a one-shot Run() of the whole DAG: every eligibility key and every event
// tie-break is the same. The timeline evaluator shares one stopped prefix among all
// candidates for one tensor this way.
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace espresso {

using TaskId = int32_t;
using ResourceId = int32_t;

struct TaskRecord {
  std::string name;
  ResourceId resource = -1;
  double start = 0.0;
  double end = 0.0;
  int priority = 0;
};

class SimEngine {
 public:
  SimEngine() = default;

  ResourceId AddSerialResource(std::string name);
  ResourceId AddPoolResource(std::string name, size_t lanes);

  // Scales a resource's execution speed: tasks on it take duration / factor. Factors
  // below 1 model degraded hardware (a straggler GPU, a contended link); the fault
  // injector drives this. Must be called before Run().
  void SetResourceSpeedFactor(ResourceId id, double factor);

  // Reserves task storage (optional; avoids reallocation in hot loops).
  void ReserveTasks(size_t count) { tasks_.reserve(count); }

  // Adds a task. Dependency ids must be smaller than the new task's id (the DAG is
  // built in topological order). `priority`: lower runs first among eligible tasks.
  TaskId AddTask(std::string name, ResourceId resource, double duration,
                 const std::vector<TaskId>& deps, int priority);
  // Single-dependency fast path; pass kNoDependency for a root task. (Separate name:
  // an overload would make AddTask(..., {}, 0) ambiguous — {} converts to TaskId 0.)
  TaskId AddTaskAfter(std::string name, ResourceId resource, double duration, TaskId dep,
                      int priority);
  // AddTaskAfter without a name or per-call argument checks: the timeline evaluator's
  // inner loop, which adds tens of millions of tasks per strategy selection.
  TaskId AddChainTask(ResourceId resource, double duration, TaskId dep, int priority) {
    const auto id = static_cast<TaskId>(tasks_.size());
    Task task;
    task.resource = resource;
    task.duration = duration;
    task.priority = priority;
    tasks_.push_back(task);
    if (dep != kNoDependency) {
      AddDependent(dep, id);
    }
    return id;
  }

  static constexpr TaskId kNoDependency = -1;

  // Runs the simulation to completion: once per engine and Reset() cycle, from the
  // start or from where RunUntil() stopped (tasks appended since included).
  void Run();

  // Processes completion events until `stop`'s completion is the next event, and leaves
  // that event unprocessed. The stopped engine may be copied; tasks may then be appended,
  // each depending on a task that has not completed, and Run() finishes the simulation.
  // Calling RunUntil again on a stopped engine moves it forward to a later stop.
  void RunUntil(TaskId stop);

  // Returns the engine to its pre-Run, no-tasks state while keeping every allocation:
  // task storage, the event heap, and the resources themselves (names, lanes) survive,
  // with lane clocks and speed factors reset. This is the hot-loop reuse path — the
  // decision algorithm's evaluation contexts run thousands of simulations on one
  // engine without reallocating. A stopped engine drops its pending work; a finished
  // one must have drained every eligible queue.
  void Reset();

  double TaskStart(TaskId id) const;
  double TaskEnd(TaskId id) const;
  // Completion time of the last task (0.0 for an empty DAG).
  double Makespan() const;

  const std::string& ResourceName(ResourceId id) const;
  size_t TaskCount() const { return tasks_.size(); }
  // Finished-task records in id order; valid after Run().
  std::vector<TaskRecord> Records() const;

 private:
  struct Task {
    ResourceId resource;
    int priority;
    double duration;
    // Dependent edges, inlined for fan-out <= 2 (the common case in tensor pipelines);
    // larger fan-outs spill into overflow_dependents_ keyed by task id.
    TaskId dependents[2] = {kNoDependency, kNoDependency};
    int32_t dependent_count = 0;
    int32_t unmet_deps = 0;
    double start = -1.0;
    double end = -1.0;
  };

  struct Resource {
    std::string name;
    double speed_factor = 1.0;
    // Free time per lane; linear scans beat a heap at the lane counts that occur here
    // (1 for serial resources, a handful of CPU workers for the pool).
    std::vector<double> lane_free;
    // Eligible tasks as a binary min-heap of packed (priority, id) keys; each task is
    // pushed exactly once.
    std::vector<uint64_t> eligible;
  };

  // Packs (priority, id) so one integer comparison reproduces the (priority, id)
  // ordering; the sign-bit flip keeps negative priorities ordered correctly.
  static uint64_t EligibleKey(int priority, TaskId id) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(priority) ^ 0x80000000u) << 32) |
           static_cast<uint32_t>(id);
  }

  void AddDependent(TaskId from, TaskId to) {
    Task& task = tasks_[from];
    if (task.dependent_count < 2) {
      task.dependents[task.dependent_count] = to;
    } else {
      overflow_dependents_.emplace_back(from, to);
    }
    ++task.dependent_count;
    ++tasks_[to].unmet_deps;
  }
  // Building: tasks and resources may be added. Stopped: RunUntil() left events pending;
  // tasks may still be appended. Finished: Run() completed every task.
  enum class Phase : uint8_t { kBuilding, kStopped, kFinished };

  void PushEligible(TaskId id);
  // Makes the root tasks eligible and dispatches at time 0.
  void Start();
  // Processes completion events in (time, id) order until `stop`'s completion is next
  // or none remain (kNoDependency never stops).
  void Advance(TaskId stop);
  void Dispatch(Resource& res, double now);
  template <typename Fn>
  void ForEachDependent(TaskId id, Fn&& fn) const;

  std::vector<Task> tasks_;
  std::vector<Resource> resources_;
  // task id -> name, only for tasks added with a non-empty name (cold path).
  std::vector<std::pair<TaskId, std::string>> names_;
  // task id -> extra dependents beyond the inline pair (rare).
  std::vector<std::pair<TaskId, TaskId>> overflow_dependents_;
  // Outstanding completion events sorted descending by (time, task id) — back() is the
  // next event. The list stays as short as the number of busy lanes, so sorted
  // insertion beats a binary heap. A member so Reset() keeps capacity.
  std::vector<std::pair<double, TaskId>> event_heap_;
  double makespan_ = 0.0;  // tracked during Run() to avoid a full post-run scan
  size_t completed_ = 0;   // completion events processed so far
  Phase phase_ = Phase::kBuilding;
};

template <typename Fn>
void SimEngine::ForEachDependent(TaskId id, Fn&& fn) const {
  const Task& task = tasks_[id];
  for (int32_t i = 0; i < task.dependent_count && i < 2; ++i) {
    fn(task.dependents[i]);
  }
  if (task.dependent_count > 2) {
    for (const auto& [from, to] : overflow_dependents_) {
      if (from == id) {
        fn(to);
      }
    }
  }
}

}  // namespace espresso

#endif  // SRC_SIM_ENGINE_H_
