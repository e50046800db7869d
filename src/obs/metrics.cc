#include "obs/metrics.h"

#include <algorithm>
#include <cassert>

#include "util/buffer.h"
#include "util/lock_stats.h"

namespace dl::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  // First bucket whose upper bound admits v; past-the-end = overflow.
  size_t idx = std::upper_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
  // upper_bound gives the first bound strictly greater than v; a value
  // equal to a bound belongs in that bound's bucket (inclusive upper).
  if (idx > 0 && bounds_[idx - 1] == v) --idx;
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double m = max_.load(std::memory_order_relaxed);
  while (v > m &&
         !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<uint64_t>& counts, double q,
                      double overflow_value) {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cumulative + counts[i]) >= rank) {
      if (i == bounds.size()) return overflow_value;
      double lower = i == 0 ? 0.0 : bounds[i - 1];
      double upper = bounds[i];
      double within = (rank - static_cast<double>(cumulative)) / counts[i];
      return lower + within * (upper - lower);
    }
    cumulative += counts[i];
  }
  return overflow_value;
}

double Histogram::Quantile(double q) const {
  return BucketQuantile(bounds_, BucketCounts(), q, Max());
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::vector<double> LatencyBucketsUs() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 16'777'216.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string MetricsRegistry::Key(const std::string& name,
                                 const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  MutexLock lock(mu_);
  auto& entry = counters_[Key(name, labels)];
  if (entry.metric == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.metric = std::make_unique<Counter>();
  }
  return entry.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  MutexLock lock(mu_);
  auto& entry = gauges_[Key(name, labels)];
  if (entry.metric == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.metric = std::make_unique<Gauge>();
  }
  return entry.metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto& entry = histograms_[Key(name, labels)];
  if (entry.metric == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.metric = std::make_unique<Histogram>(std::move(bounds));
  }
  return entry.metric.get();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [k, e] : counters_) e.metric->Reset();
  for (auto& [k, e] : gauges_) e.metric->Reset();
  for (auto& [k, e] : histograms_) e.metric->Reset();
}

namespace {

Json LabelsJson(const Labels& labels) {
  Json obj = Json::MakeObject();
  for (const auto& [k, v] : labels) obj.Set(k, v);
  return obj;
}

}  // namespace

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  MutexLock lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [key, e] : counters_) {
    snap.counters.push_back({e.name, e.labels, e.metric->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, e] : gauges_) {
    snap.gauges.push_back({e.name, e.labels, e.metric->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, e] : histograms_) {
    const Histogram& h = *e.metric;
    RegistrySnapshot::HistogramRow row;
    row.name = e.name;
    row.labels = e.labels;
    row.count = h.Count();
    row.sum = h.Sum();
    row.max = h.Max();
    row.p50 = h.Quantile(0.50);
    row.p90 = h.Quantile(0.90);
    row.p99 = h.Quantile(0.99);
    row.bounds = h.bounds();
    row.buckets = h.BucketCounts();
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

Json MetricsRegistry::SnapshotJson() const {
  RegistrySnapshot snap = Snapshot();
  Json counters = Json::MakeArray();
  for (const auto& c : snap.counters) {
    Json item = Json::MakeObject();
    item.Set("name", c.name);
    item.Set("labels", LabelsJson(c.labels));
    item.Set("value", c.value);
    counters.Append(std::move(item));
  }
  Json gauges = Json::MakeArray();
  for (const auto& g : snap.gauges) {
    Json item = Json::MakeObject();
    item.Set("name", g.name);
    item.Set("labels", LabelsJson(g.labels));
    item.Set("value", g.value);
    gauges.Append(std::move(item));
  }
  Json histograms = Json::MakeArray();
  for (const auto& h : snap.histograms) {
    Json item = Json::MakeObject();
    item.Set("name", h.name);
    item.Set("labels", LabelsJson(h.labels));
    item.Set("count", h.count);
    item.Set("sum", h.sum);
    item.Set("max", h.max);
    item.Set("p50", h.p50);
    item.Set("p90", h.p90);
    item.Set("p99", h.p99);
    Json bounds = Json::MakeArray();
    for (double b : h.bounds) bounds.Append(b);
    item.Set("bounds", std::move(bounds));
    Json buckets = Json::MakeArray();
    for (uint64_t c : h.buckets) buckets.Append(c);
    item.Set("buckets", std::move(buckets));
    histograms.Append(std::move(item));
  }
  Json snapshot = Json::MakeObject();
  snapshot.Set("counters", std::move(counters));
  snapshot.Set("gauges", std::move(gauges));
  snapshot.Set("histograms", std::move(histograms));
  return snapshot;
}

void SampleProcessGauges(MetricsRegistry& registry) {
  BufferPool& pool = BufferPool::Default();
  registry.GetGauge("buffer_pool.bytes_in_use")
      ->Set(static_cast<double>(pool.bytes_in_use()));
  registry.GetGauge("buffer_pool.acquires")
      ->Set(static_cast<double>(pool.acquires()));
  registry.GetGauge("process.bytes_copied")
      ->Set(static_cast<double>(TotalBytesCopied()));
  SampleLockStats(registry);
}

void SampleLockStats(MetricsRegistry& registry) {
  for (const auto& row : lockstats::Snapshot()) {
    registry.GetGauge("lock.wait_us", {{"lock", row.name}})
        ->Set(static_cast<double>(row.wait_us_total));
    registry.GetGauge("lock.contentions", {{"lock", row.name}})
        ->Set(static_cast<double>(row.contentions));
  }
  registry.GetGauge("lock.wait_us")
      ->Set(static_cast<double>(lockstats::TotalWaitMicros()));
  registry.GetGauge("lock.contentions")
      ->Set(static_cast<double>(lockstats::TotalContentions()));
}

}  // namespace dl::obs
