#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/util/logging.h"

namespace espresso::obs {

namespace {

// Fixed shard capacity: registration past this is a programming error, caught by
// ESP_CHECK. 4096 cells comfortably hold hundreds of counters plus dozens of
// histograms (a histogram with b bounds uses b + 2 cells).
constexpr uint32_t kShardCells = 4096;
constexpr uint32_t kMaxGauges = 512;

std::atomic<uint64_t> g_next_generation{1};

}  // namespace

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::vector<double> DefaultTimeBuckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1.0, 5.0, 10.0};
}

MetricsRegistry::MetricsRegistry()
    : store_(std::make_shared<ShardStore>()),
      gauges_(std::make_unique<Cell[]>(kMaxGauges)),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

size_t MetricsRegistry::RegisterCommon(std::string_view name, std::string_view help,
                                       MetricKind kind, uint32_t width,
                                       const std::vector<double>* bounds) {
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const MetricDef& def = defs_[it->second];
    ESP_CHECK(def.kind == kind) << "metric '" << std::string(name)
                                << "' re-registered with a different kind";
    if (kind == MetricKind::kHistogram) {
      ESP_CHECK(def.bounds != nullptr && bounds != nullptr && *def.bounds == *bounds)
          << "histogram '" << std::string(name) << "' re-registered with different buckets";
    }
    return it->second;
  }
  MetricDef def;
  def.name = std::string(name);
  def.help = std::string(help);
  def.kind = kind;
  def.bounds = bounds;
  if (kind == MetricKind::kGauge) {
    ESP_CHECK_LT(gauges_used_, kMaxGauges) << "gauge capacity exhausted";
    def.cell = gauges_used_++;
  } else {
    ESP_CHECK_LE(cells_used_ + width, kShardCells) << "metric cell capacity exhausted";
    def.cell = cells_used_;
    cells_used_ += width;
  }
  defs_.push_back(def);
  by_name_.emplace(def.name, defs_.size() - 1);
  return defs_.size() - 1;
}

Counter MetricsRegistry::RegisterCounter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(store_->mu);
  const size_t index = RegisterCommon(name, help, MetricKind::kCounter, 1, nullptr);
  return Counter{defs_[index].cell};
}

Gauge MetricsRegistry::RegisterGauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(store_->mu);
  const size_t index = RegisterCommon(name, help, MetricKind::kGauge, 0, nullptr);
  return Gauge{defs_[index].cell};
}

Histogram MetricsRegistry::RegisterHistogram(std::string_view name, std::string_view help,
                                             std::vector<double> bounds) {
  ESP_CHECK(!bounds.empty()) << "histogram needs at least one bucket bound";
  ESP_CHECK(std::is_sorted(bounds.begin(), bounds.end()))
      << "histogram bounds must be ascending";
  std::lock_guard<std::mutex> lock(store_->mu);
  bounds_store_.push_back(std::move(bounds));
  const std::vector<double>* stable = &bounds_store_.back();
  // bounds.size() bucket cells + one +Inf overflow cell + one sum cell.
  const auto width = static_cast<uint32_t>(stable->size() + 2);
  const size_t index =
      RegisterCommon(name, help, MetricKind::kHistogram, width, stable);
  if (defs_[index].bounds != stable) {
    bounds_store_.pop_back();  // duplicate registration; keep the original bounds
  }
  return Histogram{defs_[index].cell, defs_[index].bounds};
}

MetricsRegistry::Cell* MetricsRegistry::LocalCells() {
  struct CacheEntry {
    const MetricsRegistry* registry;
    uint64_t generation;
    Cell* cells;
    std::weak_ptr<ShardStore> store;
  };
  // Hands each shard back to its registry, if that still exists, when the thread
  // exits. The mutex orders the exited thread's records before the next owner's.
  struct ThreadShards {
    std::vector<CacheEntry> entries;
    ~ThreadShards() {
      for (const CacheEntry& entry : entries) {
        if (const std::shared_ptr<ShardStore> store = entry.store.lock()) {
          std::lock_guard<std::mutex> lock(store->mu);
          store->idle.push_back(entry.cells);
        }
      }
    }
  };
  thread_local ThreadShards cache;
  for (const CacheEntry& entry : cache.entries) {
    if (entry.registry == this && entry.generation == generation_) {
      return entry.cells;
    }
  }
  Cell* cells = nullptr;
  {
    std::lock_guard<std::mutex> lock(store_->mu);
    if (store_->idle.empty()) {
      // make_unique value-initializes: every atomic cell starts at zero.
      store_->shards.push_back(std::make_unique<Cell[]>(kShardCells));
      cells = store_->shards.back().get();
    } else {
      cells = store_->idle.back();
      store_->idle.pop_back();
    }
  }
  cache.entries.push_back(CacheEntry{this, generation_, cells, store_});
  return cells;
}

void MetricsRegistry::Add(Counter counter, uint64_t delta) {
  if (!counter.valid()) {
    return;
  }
  LocalCells()[counter.cell].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Set(Gauge gauge, double value) {
  if (!gauge.valid()) {
    return;
  }
  gauges_[gauge.cell].store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
}

void MetricsRegistry::Observe(Histogram histogram, double value) {
  if (!histogram.valid()) {
    return;
  }
  Cell* cells = LocalCells();
  const std::vector<double>& bounds = *histogram.bounds;
  size_t bucket = 0;
  while (bucket < bounds.size() && value > bounds[bucket]) {
    ++bucket;
  }
  cells[histogram.cell + bucket].fetch_add(1, std::memory_order_relaxed);
  // The sum cell is a bit-cast double. Only the owning thread writes this shard, so
  // a relaxed load/modify/store cannot lose updates; scrapers only read.
  Cell& sum = cells[histogram.cell + bounds.size() + 1];
  const double current = std::bit_cast<double>(sum.load(std::memory_order_relaxed));
  sum.store(std::bit_cast<uint64_t>(current + value), std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::Scrape() const {
  std::lock_guard<std::mutex> lock(store_->mu);
  MetricsSnapshot snapshot;
  snapshot.metrics.reserve(defs_.size());
  for (const MetricDef& def : defs_) {
    MetricValue value;
    value.name = def.name;
    value.help = def.help;
    value.kind = def.kind;
    switch (def.kind) {
      case MetricKind::kCounter: {
        uint64_t total = 0;
        for (const auto& shard : store_->shards) {
          total += shard[def.cell].load(std::memory_order_relaxed);
        }
        value.count = total;
        break;
      }
      case MetricKind::kGauge:
        value.value =
            std::bit_cast<double>(gauges_[def.cell].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        value.bounds = *def.bounds;
        value.bucket_counts.assign(def.bounds->size() + 1, 0);
        for (const auto& shard : store_->shards) {
          for (size_t b = 0; b < value.bucket_counts.size(); ++b) {
            value.bucket_counts[b] +=
                shard[def.cell + b].load(std::memory_order_relaxed);
          }
          value.value += std::bit_cast<double>(
              shard[def.cell + def.bounds->size() + 1].load(std::memory_order_relaxed));
        }
        for (const uint64_t c : value.bucket_counts) {
          value.count += c;
        }
        break;
      }
    }
    snapshot.metrics.push_back(std::move(value));
  }
  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(store_->mu);
  for (const auto& shard : store_->shards) {
    for (uint32_t i = 0; i < kShardCells; ++i) {
      shard[i].store(0, std::memory_order_relaxed);
    }
  }
  for (uint32_t i = 0; i < kMaxGauges; ++i) {
    gauges_[i].store(0, std::memory_order_relaxed);
  }
}

size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(store_->mu);
  return defs_.size();
}

size_t MetricsRegistry::shard_count() const {
  std::lock_guard<std::mutex> lock(store_->mu);
  return store_->shards.size();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace espresso::obs
