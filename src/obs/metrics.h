// MetricsRegistry: the process-wide measurement substrate (counters, gauges,
// fixed-bucket histograms) behind `--metrics-out` and the Prometheus/JSON exporters.
//
// The record path is built for the selector's parallel hot loop: each recording
// thread owns a private shard of atomic cells (taken on the thread's first record
// against a registry), so counter increments and histogram observations never
// contend — no locks, no shared cache lines. A thread that exits hands its shard
// back, counts and all, for the next new thread to take, so a daemon whose
// connection threads come and go holds as many shards as it ever had threads
// recording at once. Scrape() takes the registry mutex, sums the shards in
// creation order, and returns a name-sorted snapshot.
// Registration is mutex-guarded and idempotent: re-registering an existing name
// with a matching kind returns the original handle, so translation units can each
// lazily register the metrics they record.
//
// Gauges are registry-global last-write-wins cells (a gauge is a statement about
// the present, not a per-thread accumulation), stored as bit-cast doubles.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace espresso::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

inline constexpr uint32_t kInvalidCell = UINT32_MAX;

// Handles are cheap POD values; a default-constructed handle is inert (records
// against it are dropped), so instrumented code never needs null checks.
struct Counter {
  uint32_t cell = kInvalidCell;
  bool valid() const { return cell != kInvalidCell; }
};

struct Gauge {
  uint32_t cell = kInvalidCell;
  bool valid() const { return cell != kInvalidCell; }
};

struct Histogram {
  uint32_t cell = kInvalidCell;                 // first bucket cell in each shard
  const std::vector<double>* bounds = nullptr;  // stable; owned by the registry
  bool valid() const { return cell != kInvalidCell && bounds != nullptr; }
};

// One scraped metric. For histograms, `bucket_counts` has bounds.size() + 1
// entries (the last is the +Inf overflow bucket), `count` is their total, and
// `value` is the sum of observations. For counters `count` holds the value; for
// gauges `value` does.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  uint64_t count = 0;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* Find(std::string_view name) const;
};

// Histogram bucket bounds, 1us .. 10s with decade-ish spacing — fits everything from a
// single F(S) simulation to a full strategy selection.
std::vector<double> DefaultTimeBuckets();

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter RegisterCounter(std::string_view name, std::string_view help);
  Gauge RegisterGauge(std::string_view name, std::string_view help);
  Histogram RegisterHistogram(std::string_view name, std::string_view help,
                              std::vector<double> bounds);

  void Add(Counter counter, uint64_t delta = 1);
  void Set(Gauge gauge, double value);
  void Observe(Histogram histogram, double value);

  // Merges every thread shard into a name-sorted snapshot. Safe to call while
  // other threads record (their in-flight increments land in a later scrape).
  MetricsSnapshot Scrape() const;

  // Zeroes every cell in every shard and every gauge. For tests; not safe
  // concurrently with recording threads.
  void Reset();

  size_t metric_count() const;
  // Shards allocated so far: the peak number of threads recording at once.
  size_t shard_count() const;

 private:
  using Cell = std::atomic<uint64_t>;

  struct MetricDef {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    uint32_t cell = 0;  // shard offset (counter/histogram) or gauge index
    const std::vector<double>* bounds = nullptr;
  };

  // Every shard, plus the ones whose thread has exited. Shared with each recording
  // thread's exit hook through a weak reference, so a thread that outlives the
  // registry never touches it. `mu` also guards the registry's definitions.
  struct ShardStore {
    std::mutex mu;
    std::vector<std::unique_ptr<Cell[]>> shards;  // creation order
    std::vector<Cell*> idle;                      // handed back by exited threads
  };

  // Returns this thread's shard for this registry, taking one on first use.
  Cell* LocalCells();
  size_t RegisterCommon(std::string_view name, std::string_view help, MetricKind kind,
                        uint32_t width, const std::vector<double>* bounds);

  const std::shared_ptr<ShardStore> store_;
  std::vector<MetricDef> defs_;
  std::unordered_map<std::string, size_t> by_name_;
  std::deque<std::vector<double>> bounds_store_;  // stable storage for histogram bounds
  uint32_t cells_used_ = 0;
  uint32_t gauges_used_ = 0;
  std::unique_ptr<Cell[]> gauges_;
  uint64_t generation_ = 0;  // distinguishes registries that reuse an address
};

// The process-wide registry every instrumented layer records into.
MetricsRegistry& GlobalMetrics();

}  // namespace espresso::obs

#endif  // SRC_OBS_METRICS_H_
