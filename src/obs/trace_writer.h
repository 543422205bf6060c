// Chrome-trace / Perfetto writer for simulated timelines: one track per resource
// (gpu / cpu / intra / inter) with a slice per timeline entry, named by op kind and
// tensor, and fault / hot-swap instants on a "faults" track; plus
//   * flow arrows linking each tensor's pipeline ops (compress -> send -> decompress)
//     across resource tracks, so a chain reads as one causal sequence in Perfetto;
//   * counter tracks derived from the simulated schedule: consumed link bandwidth
//     (bytes/s, per link) and CPU-pool occupancy (concurrent CPU compression ops);
//   * an optional second process carrying real wall-clock ScopedSpan events from a
//     TraceCollector (pid 1), next to the simulated timeline (pid 0).
//
// Open the output in ui.perfetto.dev or chrome://tracing.
#ifndef SRC_OBS_TRACE_WRITER_H_
#define SRC_OBS_TRACE_WRITER_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/core/timeline.h"
#include "src/costmodel/calibration.h"
#include "src/obs/span.h"

namespace espresso::obs {

// A point event overlaid on the timeline (chrome "instant" event, ph = "i"): fault
// injections, retries, strategy hot-swaps. Rendered on the "faults" track.
struct TraceInstant {
  double time_s = 0.0;
  std::string name;    // e.g. "payload_drop", "strategy_reselect"
  std::string detail;  // free-form args payload shown in the event inspector
};

// `cluster` prices the link-bandwidth counter tracks; `wall` (optional) appends the
// collector's wall-clock spans as a second process. The simulated part of the
// output is deterministic for a given (model, entries, instants).
void WriteExtendedChromeTrace(std::ostream& os, const ModelProfile& model,
                              const ClusterSpec& cluster,
                              const std::vector<TimelineEntry>& entries,
                              const std::vector<TraceInstant>& instants = {},
                              const TraceCollector* wall = nullptr);

// Wall-clock spans only (no simulated timeline) — the benches' `--trace-out`.
void WriteSpanTrace(std::ostream& os, const TraceCollector& wall);

}  // namespace espresso::obs

#endif  // SRC_OBS_TRACE_WRITER_H_
