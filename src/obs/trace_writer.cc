#include "src/obs/trace_writer.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "src/util/json_writer.h"

namespace espresso::obs {

namespace {

// Stable thread ids per simulated resource track; faults get their own track.
const std::map<std::string, int>& ResourceTids() {
  static const std::map<std::string, int> tids = {
      {"gpu", 0}, {"cpu", 1}, {"intra", 2}, {"inter", 3}, {"faults", 4}};
  return tids;
}

constexpr int kSimPid = 0;
constexpr int kWallPid = 1;
// Wall-clock thread ordinals are offset so they never collide with resource tids.
constexpr int kWallTidBase = 100;

void WriteThreadName(JsonWriter& w, int pid, int tid, const std::string& name) {
  w.BeginObject();
  w.Field("name", "thread_name");
  w.Field("ph", "M");
  w.Field("pid", pid);
  w.Field("tid", tid);
  w.Key("args");
  w.BeginObject();
  w.Field("name", name);
  w.EndObject();
  w.EndObject();
}

void WriteProcessName(JsonWriter& w, int pid, const std::string& name) {
  w.BeginObject();
  w.Field("name", "process_name");
  w.Field("ph", "M");
  w.Field("pid", pid);
  w.Key("args");
  w.BeginObject();
  w.Field("name", name);
  w.EndObject();
  w.EndObject();
}

std::string TensorName(const ModelProfile& model, size_t tensor) {
  return tensor < model.tensors.size() ? model.tensors[tensor].name
                                       : "T" + std::to_string(tensor);
}

int EntryTid(const TimelineEntry& entry) {
  const auto& tids = ResourceTids();
  const auto it = tids.find(entry.resource);
  return it == tids.end() ? 9 : it->second;
}

// One chrome flow event ("s" start / "t" step / "f" finish). The event binds to
// the slice enclosing `ts` on (pid, tid), so timestamps are slice midpoints.
void WriteFlowEvent(JsonWriter& w, const char* phase, uint64_t id, double ts_us,
                    int tid) {
  w.BeginObject();
  w.Field("name", "pipeline");
  w.Field("cat", "flow");
  w.Field("ph", phase);
  w.Field("id", id);
  w.Field("ts", ts_us);
  w.Field("pid", kSimPid);
  w.Field("tid", tid);
  if (phase[0] == 'f') {
    w.Field("bp", "e");  // bind to the enclosing slice, not the next one
  }
  w.EndObject();
}

void WriteCounterEvent(JsonWriter& w, const std::string& track, double ts_us,
                       double value) {
  w.BeginObject();
  w.Field("name", track);
  w.Field("ph", "C");
  w.Field("ts", ts_us);
  w.Field("pid", kSimPid);
  w.Key("args");
  w.BeginObject();
  w.Field("value", value);
  w.EndObject();
  w.EndObject();
}

// Emits a step-function counter track from per-entry [start, end) intervals:
// value(t) = (number of active intervals) * unit.
void WriteOccupancyTrack(JsonWriter& w, const std::string& track, double unit,
                         const std::vector<std::pair<double, double>>& intervals) {
  if (intervals.empty()) {
    return;
  }
  std::vector<std::pair<double, double>> deltas;  // (time, +unit/-unit)
  deltas.reserve(intervals.size() * 2);
  for (const auto& [start, end] : intervals) {
    deltas.emplace_back(start, unit);
    deltas.emplace_back(end, -unit);
  }
  std::sort(deltas.begin(), deltas.end());
  double value = 0.0;
  for (size_t i = 0; i < deltas.size();) {
    const double at = deltas[i].first;
    while (i < deltas.size() && deltas[i].first == at) {
      value += deltas[i].second;
      ++i;
    }
    // Clamp float cancellation noise so the track returns to exactly zero.
    if (value < unit * 0.5) {
      value = 0.0;
    }
    WriteCounterEvent(w, track, at * 1e6, value);
  }
}

void WriteWallSpans(JsonWriter& w, const TraceCollector& wall) {
  const std::vector<TraceCollector::SpanEvent> spans = wall.spans();
  std::set<uint32_t> threads;
  for (const auto& span : spans) {
    threads.insert(span.thread);
  }
  WriteProcessName(w, kWallPid, "wall clock");
  for (const uint32_t thread : threads) {
    WriteThreadName(w, kWallPid, kWallTidBase + static_cast<int>(thread),
                    "wall:" + std::to_string(thread));
  }
  for (const auto& span : spans) {
    w.BeginObject();
    w.Field("name", span.name);
    w.Field("cat", span.category);
    w.Field("ph", "X");
    w.Field("ts", span.start_s * 1e6);
    w.Field("dur", (span.end_s - span.start_s) * 1e6);
    w.Field("pid", kWallPid);
    w.Field("tid", kWallTidBase + static_cast<int>(span.thread));
    w.EndObject();
  }
}

}  // namespace

void WriteExtendedChromeTrace(std::ostream& os, const ModelProfile& model,
                              const ClusterSpec& cluster,
                              const std::vector<TimelineEntry>& entries,
                              const std::vector<TraceInstant>& instants,
                              const TraceCollector* wall) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();

  WriteProcessName(w, kSimPid, "simulated timeline");
  for (const auto& [name, tid] : ResourceTids()) {
    WriteThreadName(w, kSimPid, tid, name);
  }

  for (const auto& e : entries) {
    w.BeginObject();
    w.Field("name", e.kind + " " + TensorName(model, e.tensor));
    w.Field("cat", e.kind);
    w.Field("ph", "X");
    w.Field("ts", e.start * 1e6);
    w.Field("dur", (e.end - e.start) * 1e6);
    w.Field("pid", kSimPid);
    w.Field("tid", EntryTid(e));
    w.Key("args");
    w.BeginObject();
    w.Field("tensor", TensorName(model, e.tensor));
    w.EndObject();
    w.EndObject();
  }

  // Group each tensor's ops in schedule order; a chain of >= 2 ops gets one flow
  // (s at the first op, t through the middle, f at the last) so Perfetto draws
  // arrows along compress -> send -> decompress across the resource tracks.
  std::map<size_t, std::vector<const TimelineEntry*>> chains;
  for (const auto& e : entries) {
    chains[e.tensor].push_back(&e);
  }
  for (auto& [tensor, chain] : chains) {
    std::sort(chain.begin(), chain.end(),
              [](const TimelineEntry* a, const TimelineEntry* b) {
                return std::tie(a->start, a->end) < std::tie(b->start, b->end);
              });
    if (chain.size() < 2) {
      continue;
    }
    const uint64_t flow_id = tensor + 1;  // non-zero ids render more reliably
    for (size_t i = 0; i < chain.size(); ++i) {
      const TimelineEntry& e = *chain[i];
      const double mid_us = (e.start + e.end) * 0.5 * 1e6;
      const char* phase = i == 0 ? "s" : (i + 1 == chain.size() ? "f" : "t");
      WriteFlowEvent(w, phase, flow_id, mid_us, EntryTid(e));
    }
  }

  std::vector<std::pair<double, double>> cpu, intra, inter;
  for (const auto& e : entries) {
    if (e.resource == "cpu") {
      cpu.emplace_back(e.start, e.end);
    } else if (e.resource == "intra") {
      intra.emplace_back(e.start, e.end);
    } else if (e.resource == "inter") {
      inter.emplace_back(e.start, e.end);
    }
  }
  WriteOccupancyTrack(w, "cpu_pool_occupancy", 1.0, cpu);
  WriteOccupancyTrack(w, "intra_link_bandwidth_bytes_per_s", cluster.intra.bytes_per_second,
                      intra);
  WriteOccupancyTrack(w, "inter_link_bandwidth_bytes_per_s", cluster.inter.bytes_per_second,
                      inter);

  for (const auto& instant : instants) {
    w.BeginObject();
    w.Field("name", instant.name);
    w.Field("cat", "fault");
    w.Field("ph", "i");
    w.Field("s", "t");  // thread-scoped instant
    w.Field("ts", instant.time_s * 1e6);
    w.Field("pid", kSimPid);
    w.Field("tid", ResourceTids().at("faults"));
    if (!instant.detail.empty()) {
      w.Key("args");
      w.BeginObject();
      w.Field("detail", instant.detail);
      w.EndObject();
    }
    w.EndObject();
  }

  if (wall != nullptr) {
    WriteWallSpans(w, *wall);
  }

  w.EndArray();
  w.Field("displayTimeUnit", "ms");
  w.EndObject();
  os << "\n";
}

void WriteSpanTrace(std::ostream& os, const TraceCollector& wall) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  WriteWallSpans(w, wall);
  w.EndArray();
  w.Field("displayTimeUnit", "ms");
  w.EndObject();
  os << "\n";
}

}  // namespace espresso::obs
