#include "src/analysis/schedule_verifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>

namespace espresso {

namespace {

// Absolute slack (seconds) for float comparisons between interval endpoints.
constexpr double kEpsilon = 1e-9;

WitnessInterval Witness(const TimelineEntry& e) {
  return WitnessInterval{e.tensor, e.kind, e.resource, e.start, e.end};
}

std::string Describe(const TimelineEntry& e) {
  std::ostringstream os;
  os << "tensor " << e.tensor << " " << e.kind << " on " << e.resource << " ["
     << e.start << ", " << e.end << ")";
  return os.str();
}

void AddWitnessed(DiagnosticReport* report, const char* rule, size_t tensor,
                  const std::string& message, const std::string& hint,
                  const TimelineEntry& a, const TimelineEntry* b = nullptr) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.rule = rule;
  d.tensor = tensor;
  d.message = message;
  d.fix_hint = hint;
  d.witnesses.push_back(Witness(a));
  if (b != nullptr) {
    d.witnesses.push_back(Witness(*b));
  }
  report->Add(std::move(d));
}

// Prefix-minimum Fenwick tree over compressed coordinates, used by the WFBP priority
// audit to answer "among ops that start later, what is the smallest tensor id whose
// ready time is <= t" in O(log n).
class PrefixMinTree {
 public:
  explicit PrefixMinTree(size_t size)
      : tree_(size + 1, std::numeric_limits<size_t>::max()) {}

  void Update(size_t index, size_t value) {
    for (size_t i = index + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] = std::min(tree_[i], value);
    }
  }

  // Minimum value over indices [0, index].
  size_t Query(size_t index) const {
    size_t best = std::numeric_limits<size_t>::max();
    for (size_t i = index + 1; i > 0; i -= i & (~i + 1)) {
      best = std::min(best, tree_[i]);
    }
    return best;
  }

 private:
  std::vector<size_t> tree_;
};

struct ScheduledOp {
  size_t entry_index;
  double start;
  double ready;   // chain predecessor's end (backward compute for the first op)
  size_t tensor;  // WFBP priority: lower tensor index runs first
};

class ScheduleChecker {
 public:
  ScheduleChecker(const std::vector<TimelineEntry>& entries, const VerifierConfig& config,
                  DiagnosticReport* report)
      : entries_(entries), config_(config), report_(report) {}

  void Run() {
    CheckSanity();
    BuildChains();
    CheckCausality();
    CheckSerialResources();
    CheckPoolOccupancy();
  }

 private:
  void CheckSanity() {
    for (const TimelineEntry& e : entries_) {
      if (!std::isfinite(e.start) || !std::isfinite(e.end)) {
        AddWitnessed(report_, rules::kNonFiniteTime, e.tensor,
                     "non-finite interval endpoint: " + Describe(e),
                     "cost models must return finite durations", e);
        continue;
      }
      if (e.end < e.start - kEpsilon) {
        AddWitnessed(report_, rules::kNegativeDuration, e.tensor,
                     "interval ends before it starts: " + Describe(e),
                     "durations must be non-negative", e);
      }
      if (e.start < -kEpsilon) {
        AddWitnessed(report_, rules::kNegativeDuration, e.tensor,
                     "interval starts before t=0: " + Describe(e),
                     "the iteration clock starts at backward-compute time zero", e);
      }
    }
  }

  // Entries of one tensor arrive in pipeline (dependency-chain) order; record each
  // op's chain predecessor and its readiness time.
  void BuildChains() {
    std::map<size_t, size_t> last_of_tensor;  // tensor -> entry index of chain tail
    size_t last_compute = SIZE_MAX;
    chain_pred_.assign(entries_.size(), SIZE_MAX);
    ready_.assign(entries_.size(), 0.0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const TimelineEntry& e = entries_[i];
      const auto it = last_of_tensor.find(e.tensor);
      if (it != last_of_tensor.end()) {
        chain_pred_[i] = it->second;
        ready_[i] = entries_[it->second].end;
        it->second = i;
      } else {
        // Chain head. Backward compute itself chains behind the previous tensor's
        // compute (WFBP produces gradients in tensor order).
        if (e.kind == "compute" && last_compute != SIZE_MAX) {
          chain_pred_[i] = last_compute;
          ready_[i] = entries_[last_compute].end;
        }
        last_of_tensor.emplace(e.tensor, i);
      }
      if (e.kind == "compute") {
        last_compute = i;
      }
    }
  }

  void CheckCausality() {
    for (size_t i = 0; i < entries_.size(); ++i) {
      const size_t pred = chain_pred_[i];
      if (pred == SIZE_MAX) {
        continue;
      }
      if (entries_[i].start < entries_[pred].end - kEpsilon) {
        AddWitnessed(report_, rules::kCausality, entries_[i].tensor,
                     Describe(entries_[i]) + " starts before its chain predecessor " +
                         Describe(entries_[pred]) + " ends",
                     "an op cannot run before the payload it consumes exists",
                     entries_[pred], &entries_[i]);
      }
    }
  }

  void CheckSerialResources() {
    // Group entry indices per resource; every resource except the cpu pool is serial.
    std::map<std::string, std::vector<size_t>> per_resource;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].resource != "cpu") {
        per_resource[entries_[i].resource].push_back(i);
      }
    }
    for (auto& [resource, indices] : per_resource) {
      std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
        return entries_[a].start < entries_[b].start;
      });
      // Zero-duration intervals occupy no time and may legally coincide with any
      // boundary instant, so only positive-length intervals can double-book.
      std::vector<size_t> timed;
      timed.reserve(indices.size());
      for (size_t idx : indices) {
        if (entries_[idx].end > entries_[idx].start + kEpsilon) {
          timed.push_back(idx);
        }
      }
      // Compare each interval against the latest-ending predecessor, not just the
      // adjacent one, so an interval nested inside a long one is still caught.
      for (size_t k = 1, latest = 0; k < timed.size(); ++k) {
        const TimelineEntry& prev = entries_[timed[latest]];
        const TimelineEntry& cur = entries_[timed[k]];
        if (cur.start < prev.end - kEpsilon) {
          AddWitnessed(report_, rules::kSerialOverlap, cur.tensor,
                       "double-booked serial resource '" + resource + "': " +
                           Describe(prev) + " overlaps " + Describe(cur),
                       "serial resources run one task at a time", prev, &cur);
        }
        if (cur.end > prev.end) {
          latest = k;
        }
      }
      if (config_.check_priority) {
        CheckPriority(resource, indices);
      }
    }
  }

  // WFBP/FIFO priority: when the resource started op A, no op B of a
  // closer-to-the-output tensor (smaller index) that was already ready may still be
  // waiting. Answered with a sweep from the latest start backwards, inserting each
  // later-starting op into a prefix-min tree keyed by its ready time.
  void CheckPriority(const std::string& resource, const std::vector<size_t>& sorted) {
    std::vector<ScheduledOp> ops;
    ops.reserve(sorted.size());
    for (size_t idx : sorted) {
      ops.push_back(ScheduledOp{idx, entries_[idx].start, ready_[idx],
                                entries_[idx].tensor});
    }
    // Coordinate-compress ready times.
    std::vector<double> ready_times;
    ready_times.reserve(ops.size());
    for (const ScheduledOp& op : ops) {
      ready_times.push_back(op.ready);
    }
    std::sort(ready_times.begin(), ready_times.end());
    ready_times.erase(std::unique(ready_times.begin(), ready_times.end()),
                      ready_times.end());
    auto ready_rank = [&](double t) {
      return static_cast<size_t>(
          std::lower_bound(ready_times.begin(), ready_times.end(), t) -
          ready_times.begin());
    };
    // tensor -> min-ready op inserted so far, for witness reconstruction.
    std::map<size_t, const ScheduledOp*> by_tensor;
    PrefixMinTree tree(ready_times.size());
    // Sweep queries from the latest start backwards; `inserted` walks down behind the
    // query so only ops starting strictly later than the queried op are in the tree
    // (simultaneous starts are not "waiting", they are zero-duration ties).
    size_t inserted = ops.size();
    for (size_t k = ops.size(); k-- > 0;) {
      const ScheduledOp& a = ops[k];
      while (inserted > 0 && ops[inserted - 1].start > a.start + kEpsilon) {
        --inserted;
        const ScheduledOp& b = ops[inserted];
        tree.Update(ready_rank(b.ready), b.tensor);
        const auto it = by_tensor.find(b.tensor);
        if (it == by_tensor.end() || it->second->ready > b.ready) {
          by_tensor[b.tensor] = &b;
        }
      }
      // Smallest tensor among later-starting ops ready strictly before a started.
      const double cutoff = a.start - kEpsilon;
      const auto upper = std::upper_bound(ready_times.begin(), ready_times.end(), cutoff);
      if (upper != ready_times.begin()) {
        const size_t best = tree.Query(static_cast<size_t>(upper - ready_times.begin()) - 1);
        if (best < a.tensor) {
          const ScheduledOp* b = by_tensor[best];
          AddWitnessed(report_, rules::kPriorityInversion, a.tensor,
                       "WFBP priority inversion on '" + resource + "': " +
                           Describe(entries_[a.entry_index]) + " ran while ready op " +
                           Describe(entries_[b->entry_index]) + " of tensor " +
                           std::to_string(b->tensor) +
                           " (closer to the output layer) waited",
                       "serial resources must pick the smallest ready tensor index "
                       "(FIFO within the WFBP order)",
                       entries_[a.entry_index], &entries_[b->entry_index]);
        }
      }
    }
  }

  void CheckPoolOccupancy() {
    struct Event {
      double time;
      int delta;  // +1 start, -1 end
      size_t entry_index;
    };
    std::vector<Event> events;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].resource != "cpu" || entries_[i].end <= entries_[i].start) {
        continue;
      }
      events.push_back(Event{entries_[i].start, +1, i});
      events.push_back(Event{entries_[i].end, -1, i});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      if (a.time != b.time) {
        return a.time < b.time;
      }
      return a.delta < b.delta;  // ends release lanes before starts claim them
    });
    size_t occupancy = 0;
    size_t reported = 0;
    for (const Event& ev : events) {
      if (ev.delta > 0) {
        ++occupancy;
        if (occupancy > config_.cpu_workers && reported < 3) {
          ++reported;
          AddWitnessed(report_, rules::kPoolOvercommit, entries_[ev.entry_index].tensor,
                       "cpu pool holds " + std::to_string(occupancy) +
                           " concurrent tasks but has " +
                           std::to_string(config_.cpu_workers) + " workers; " +
                           Describe(entries_[ev.entry_index]) + " exceeded the pool",
                       "pool occupancy may never exceed cpu_workers_per_gpu",
                       entries_[ev.entry_index]);
        }
      } else {
        --occupancy;
      }
    }
  }

  const std::vector<TimelineEntry>& entries_;
  const VerifierConfig& config_;
  DiagnosticReport* report_;
  std::vector<size_t> chain_pred_;
  std::vector<double> ready_;
};

const char* ExpectedKind(const Op& op) {
  switch (op.task) {
    case ActionTask::kCompress:
      return "compress";
    case ActionTask::kDecompress:
      return "decompress";
    case ActionTask::kComm:
      return RoutineName(op.routine);
  }
  return "?";
}

// Option-level payload-flow conservation: a compress op's payload covers exactly its
// domain, a comm op never sends more than its domain, and a decompress op's fan_in
// payloads cover the domain it reconstructs. Together with the one-to-one entry/op
// correspondence this pins byte conservation across compress -> comm -> decompress.
void CheckPayloadFlow(const CompressionOption& option, size_t tensor,
                      DiagnosticReport* report) {
  constexpr double kEps = 1e-9;
  for (size_t k = 0; k < option.ops.size(); ++k) {
    const Op& op = option.ops[k];
    std::string where = "op " + std::to_string(k) + " (" + ExpectedKind(op) + ")";
    switch (op.task) {
      case ActionTask::kCompress:
        if (std::abs(op.payload_fraction - op.domain_fraction) > kEps) {
          report->AddError(rules::kBytesNotConserved, tensor,
                           where + " compresses domain " +
                               std::to_string(op.domain_fraction) + " into coverage " +
                               std::to_string(op.payload_fraction),
                           "compression output must cover the compressed domain");
        }
        break;
      case ActionTask::kDecompress:
        if (static_cast<double>(op.fan_in) * op.payload_fraction <
            op.domain_fraction - kEps) {
          report->AddError(rules::kBytesNotConserved, tensor,
                           where + ": " + std::to_string(op.fan_in) +
                               " payload(s) of coverage " +
                               std::to_string(op.payload_fraction) +
                               " cannot reconstruct domain " +
                               std::to_string(op.domain_fraction),
                           "fan_in * payload_fraction must cover the domain");
        }
        break;
      case ActionTask::kComm:
        if (op.payload_fraction > op.domain_fraction + kEps) {
          report->AddError(rules::kBytesNotConserved, tensor,
                           where + " sends payload " +
                               std::to_string(op.payload_fraction) +
                               " exceeding its domain " +
                               std::to_string(op.domain_fraction),
                           "a rank cannot contribute more data than it holds");
        }
        break;
    }
  }
}

}  // namespace

DiagnosticReport VerifySchedule(const std::vector<TimelineEntry>& entries,
                                const VerifierConfig& config) {
  DiagnosticReport report;
  ScheduleChecker(entries, config, &report).Run();
  return report;
}

DiagnosticReport VerifySimulatedTimeline(const Strategy& strategy,
                                         const std::vector<TimelineEntry>& entries,
                                         const VerifierConfig& config) {
  DiagnosticReport report = VerifySchedule(entries, config);

  // Strategy correspondence: per tensor, the non-hostcopy entries must be the backward
  // compute followed by the option's ops, one entry per op, in order.
  std::map<size_t, std::vector<const TimelineEntry*>> per_tensor;
  for (const TimelineEntry& e : entries) {
    if (e.kind != "hostcopy") {
      per_tensor[e.tensor].push_back(&e);
    }
  }
  for (size_t i = 0; i < strategy.options.size(); ++i) {
    const CompressionOption& option = strategy.options[i];
    CheckPayloadFlow(option, i, &report);
    const auto it = per_tensor.find(i);
    if (it == per_tensor.end()) {
      report.AddError(rules::kOpCountMismatch, i,
                      "tensor has no timeline entries but its option has " +
                          std::to_string(option.ops.size()) + " ops",
                      "every tensor's pipeline must be scheduled");
      continue;
    }
    const std::vector<const TimelineEntry*>& seq = it->second;
    if (seq.size() != option.ops.size() + 1 || seq[0]->kind != "compute") {
      report.AddError(rules::kOpCountMismatch, i,
                      "expected compute + " + std::to_string(option.ops.size()) +
                          " op entries, found " + std::to_string(seq.size()),
                      "the schedule must contain exactly one interval per pipeline op");
      continue;
    }
    for (size_t k = 0; k < option.ops.size(); ++k) {
      const char* expected = ExpectedKind(option.ops[k]);
      if (seq[k + 1]->kind != expected) {
        AddWitnessed(&report, rules::kOpCountMismatch, i,
                     "pipeline op " + std::to_string(k) + " should schedule as '" +
                         expected + "' but the timeline shows '" + seq[k + 1]->kind + "'",
                     "entries must mirror the option's op sequence", *seq[k + 1]);
      }
    }
  }
  for (const auto& [tensor, seq] : per_tensor) {
    if (tensor >= strategy.options.size()) {
      report.AddError(rules::kOpCountMismatch, tensor,
                      "timeline references tensor " + std::to_string(tensor) +
                          " beyond the strategy's " +
                          std::to_string(strategy.options.size()) + " tensors",
                      "strategies are index-aligned with the model's tensors");
    }
  }
  return report;
}

}  // namespace espresso
