#include "src/sim/engine.h"

#include <algorithm>
#include <functional>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace espresso {

namespace {

struct EngineMetrics {
  obs::Counter runs;
  obs::Counter tasks;
};

const EngineMetrics& Metrics() {
  static const EngineMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::GlobalMetrics();
    EngineMetrics m;
    m.runs = r.RegisterCounter("espresso_sim_runs_total",
                               "Discrete-event simulation runs (SimEngine::Run)");
    m.tasks = r.RegisterCounter("espresso_sim_tasks_total",
                                "Tasks completed across all simulation runs (a shared "
                                "stopped prefix counts once)");
    return m;
  }();
  return metrics;
}

}  // namespace

ResourceId SimEngine::AddSerialResource(std::string name) {
  return AddPoolResource(std::move(name), 1);
}

ResourceId SimEngine::AddPoolResource(std::string name, size_t lanes) {
  ESP_CHECK(phase_ == Phase::kBuilding);
  ESP_CHECK_GT(lanes, 0u);
  Resource res;
  res.name = std::move(name);
  res.lane_free.assign(lanes, 0.0);
  resources_.push_back(std::move(res));
  return static_cast<ResourceId>(resources_.size() - 1);
}

TaskId SimEngine::AddTask(std::string name, ResourceId resource, double duration,
                          const std::vector<TaskId>& deps, int priority) {
  for (TaskId dep : deps) {
    ESP_CHECK_GE(dep, 0);
    ESP_CHECK_LT(static_cast<size_t>(dep), tasks_.size());  // the new task's id
  }
  const TaskId id = AddTaskAfter(std::move(name), resource, duration,
                                 deps.empty() ? kNoDependency : deps[0], priority);
  for (size_t k = 1; k < deps.size(); ++k) {
    AddDependent(deps[k], id);
  }
  return id;
}

TaskId SimEngine::AddTaskAfter(std::string name, ResourceId resource, double duration,
                               TaskId dep, int priority) {
  ESP_CHECK(phase_ != Phase::kFinished);
  // A stopped engine made its roots eligible already: a new root would never run.
  ESP_CHECK(phase_ == Phase::kBuilding || dep != kNoDependency)
      << "a task appended to a stopped engine needs a dependency";
  ESP_CHECK_GE(resource, 0);
  ESP_CHECK_LT(static_cast<size_t>(resource), resources_.size());
  ESP_CHECK_GE(duration, 0.0);
  const auto id = static_cast<TaskId>(tasks_.size());
  Task task;
  task.resource = resource;
  task.duration = duration;
  task.priority = priority;
  tasks_.push_back(task);
  if (!name.empty()) {
    names_.emplace_back(id, std::move(name));
  }
  if (dep != kNoDependency) {
    ESP_CHECK_GE(dep, 0);
    ESP_CHECK_LT(dep, id);
    AddDependent(dep, id);
  }
  return id;
}

void SimEngine::SetResourceSpeedFactor(ResourceId id, double factor) {
  ESP_CHECK(phase_ == Phase::kBuilding);
  ESP_CHECK_GE(id, 0);
  ESP_CHECK_LT(static_cast<size_t>(id), resources_.size());
  ESP_CHECK_GT(factor, 0.0) << "resource speed factor must be positive";
  resources_[id].speed_factor = factor;
}

void SimEngine::Reset() {
  const bool stopped = phase_ == Phase::kStopped;
  tasks_.clear();
  names_.clear();
  overflow_dependents_.clear();
  event_heap_.clear();
  makespan_ = 0.0;
  completed_ = 0;
  phase_ = Phase::kBuilding;
  for (Resource& res : resources_) {
    // A stopped engine abandons the eligible tasks it never dispatched. After Run()
    // every eligible task has been dispatched; only the lane clocks need rewinding.
    // Speed factors go back to the profiled baseline as well, so a reused engine
    // starts from the same state as a freshly built one.
    if (stopped) {
      res.eligible.clear();
    }
    ESP_CHECK(res.eligible.empty()) << "Reset() before Run() drained resource " << res.name;
    std::fill(res.lane_free.begin(), res.lane_free.end(), 0.0);
    res.speed_factor = 1.0;
  }
}

void SimEngine::Dispatch(Resource& res, double now) {
  const size_t lanes = res.lane_free.size();
  while (!res.eligible.empty()) {
    // Earliest-free lane by linear scan; lane counts here are 1 (serial resources) or
    // a handful of CPU workers, where the scan beats heap maintenance.
    size_t lane = 0;
    if (lanes > 1) {
      for (size_t l = 1; l < lanes; ++l) {
        if (res.lane_free[l] < res.lane_free[lane]) {
          lane = l;
        }
      }
    }
    if (res.lane_free[lane] > now) {
      break;
    }
    std::pop_heap(res.eligible.begin(), res.eligible.end(), std::greater<>());
    const TaskId id = static_cast<TaskId>(res.eligible.back() & 0xffffffffu);
    res.eligible.pop_back();
    Task& task = tasks_[id];
    task.start = now;
    task.end = now + task.duration / res.speed_factor;
    if (task.end > makespan_) {
      makespan_ = task.end;
    }
    res.lane_free[lane] = task.end;
    // Insertion into the descending-sorted event list; the list length tracks the
    // number of busy lanes (a handful), where a memmove beats heap maintenance.
    const std::pair<double, TaskId> event{task.end, id};
    auto it = std::lower_bound(
        event_heap_.begin(), event_heap_.end(), event,
        [](const std::pair<double, TaskId>& a, const std::pair<double, TaskId>& b) {
          return b < a;
        });
    event_heap_.insert(it, event);
  }
}

void SimEngine::PushEligible(TaskId id) {
  const Task& task = tasks_[id];
  Resource& res = resources_[task.resource];
  res.eligible.push_back(EligibleKey(task.priority, id));
  std::push_heap(res.eligible.begin(), res.eligible.end(), std::greater<>());
}

void SimEngine::Start() {
  for (TaskId id = 0; id < static_cast<TaskId>(tasks_.size()); ++id) {
    if (tasks_[id].unmet_deps == 0) {
      PushEligible(id);
    }
  }
  for (Resource& res : resources_) {
    Dispatch(res, 0.0);
  }
}

void SimEngine::Advance(TaskId stop) {
  size_t completed = completed_;
  ResourceId touched[8];
  while (!event_heap_.empty() && event_heap_.back().second != stop) {
    const auto [now, id] = event_heap_.back();
    event_heap_.pop_back();
    ++completed;
    size_t touched_count = 0;
    bool touched_overflow = false;
    touched[touched_count++] = tasks_[id].resource;
    ForEachDependent(id, [&](TaskId dep) {
      if (--tasks_[dep].unmet_deps == 0) {
        PushEligible(dep);
        const ResourceId rid = tasks_[dep].resource;
        bool seen = false;
        for (size_t i = 0; i < touched_count; ++i) {
          if (touched[i] == rid) {
            seen = true;
            break;
          }
        }
        if (!seen) {
          if (touched_count < 8) {
            touched[touched_count++] = rid;
          } else {
            touched_overflow = true;
          }
        }
      }
    });
    if (touched_overflow) {
      for (Resource& res : resources_) {
        Dispatch(res, now);
      }
    } else {
      for (size_t i = 0; i < touched_count; ++i) {
        Dispatch(resources_[touched[i]], now);
      }
    }
  }
  obs::GlobalMetrics().Add(Metrics().tasks, completed - completed_);
  completed_ = completed;
}

void SimEngine::Run() {
  ESP_CHECK(phase_ != Phase::kFinished);
  if (phase_ == Phase::kBuilding) {
    Start();
  }
  phase_ = Phase::kFinished;
  Advance(kNoDependency);
  obs::GlobalMetrics().Add(Metrics().runs);
  ESP_CHECK_EQ(completed_, tasks_.size()) << "dependency cycle or unreachable task";
}

void SimEngine::RunUntil(TaskId stop) {
  ESP_CHECK(phase_ != Phase::kFinished);
  ESP_CHECK_GE(stop, 0);
  ESP_CHECK_LT(static_cast<size_t>(stop), tasks_.size());
  if (phase_ == Phase::kBuilding) {
    Start();
  }
  phase_ = Phase::kStopped;
  Advance(stop);
  ESP_CHECK(!event_heap_.empty())
      << "RunUntil(" << stop << "): the task completed earlier or never runs";
}

double SimEngine::TaskStart(TaskId id) const {
  ESP_CHECK(phase_ == Phase::kFinished);
  ESP_CHECK_GE(id, 0);
  ESP_CHECK_LT(static_cast<size_t>(id), tasks_.size());
  return tasks_[id].start;
}

double SimEngine::TaskEnd(TaskId id) const {
  ESP_CHECK(phase_ == Phase::kFinished);
  ESP_CHECK_GE(id, 0);
  ESP_CHECK_LT(static_cast<size_t>(id), tasks_.size());
  return tasks_[id].end;
}

double SimEngine::Makespan() const {
  ESP_CHECK(phase_ == Phase::kFinished);
  return makespan_;
}

const std::string& SimEngine::ResourceName(ResourceId id) const {
  ESP_CHECK_GE(id, 0);
  ESP_CHECK_LT(static_cast<size_t>(id), resources_.size());
  return resources_[id].name;
}

std::vector<TaskRecord> SimEngine::Records() const {
  ESP_CHECK(phase_ == Phase::kFinished);
  std::vector<TaskRecord> records;
  records.reserve(tasks_.size());
  for (const Task& task : tasks_) {
    records.push_back(TaskRecord{"", task.resource, task.start, task.end, task.priority});
  }
  for (const auto& [id, name] : names_) {
    records[id].name = name;
  }
  return records;
}

}  // namespace espresso
