#ifndef DEEPLAKE_OBS_METRICS_H_
#define DEEPLAKE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace dl::obs {

/// Metric labels: (key, value) pairs. Order-insensitive — the registry
/// canonicalizes them, so {{"op","get"},{"store","s3"}} and the reverse name
/// the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count (requests, bytes, errors). Lock-free.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (utilization, queue depth). Add/Sub
/// support up-down usage (in-flight request tracking).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  void Sub(double d) { Add(-d); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-boundary histogram with an atomic fast path. `bounds` are strictly
/// increasing bucket upper limits; one implicit overflow bucket catches
/// everything above the last bound. Observe() is lock-free; readouts
/// (Count/Sum/Quantile) are racy-but-monotone snapshots — fine for metrics,
/// not for invariants.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  /// Convenience for latency instruments: records `NowMicros() - start_us`.
  void ObserveSinceMicros(int64_t start_us) {
    Observe(static_cast<double>(NowMicros() - start_us));
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Max() const { return max_.load(std::memory_order_relaxed); }

  /// Value at quantile q in [0, 1], linearly interpolated inside the
  /// owning bucket (the standard fixed-bucket estimator). Observations in
  /// the overflow bucket report the tracked max. Returns 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;

  void Reset();

 private:
  std::vector<double> bounds_;
  // unique_ptr because std::atomic is immovable and the registry stores
  // histograms in movable containers before pinning.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> max_{0};
};

/// Default latency bucket boundaries in microseconds: powers of two from
/// 1µs to ~17s (25 buckets). Covers everything from an L2 miss to a very
/// slow cross-region request with ≤2x quantile error.
std::vector<double> LatencyBucketsUs();

/// Point-in-time copy of every instrument in a registry, in canonical
/// (name, sorted-labels) order. The structured form behind SnapshotJson()
/// and the exporters in obs/export.h; rows own their strings, so a snapshot
/// stays valid however long the caller holds it.
struct RegistrySnapshot {
  struct CounterRow {
    std::string name;
    Labels labels;
    uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    Labels labels;
    double value = 0;
  };
  struct HistogramRow {
    std::string name;
    Labels labels;
    uint64_t count = 0;
    double sum = 0;
    double max = 0;
    double p50 = 0, p90 = 0, p99 = 0;
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// Process-wide registry of named, labeled instruments.
///
/// Naming scheme (see DESIGN.md §7): dot-separated `<subsystem>.<what>[_us]`
/// — e.g. `storage.op_us{op=get,store=sim:local(memory)}`,
/// `loader.decode_us`, `sim.gpu.utilization{gpu=gpu0}`. The `_us` suffix
/// marks microsecond latency histograms.
///
/// Get* returns a stable pointer, creating the instrument on first use;
/// callers cache it and hit only the atomic on the hot path. Instruments
/// live for the registry's lifetime; Reset() zeroes values but never
/// invalidates handles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem reports into. Tests that
  /// assert exact values construct their own local registry instead.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {})
      DL_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const Labels& labels = {})
      DL_EXCLUDES(mu_);
  /// `bounds` is honored only on first creation of (name, labels).
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          std::vector<double> bounds = LatencyBucketsUs())
      DL_EXCLUDES(mu_);

  /// Zeroes every instrument (handles stay valid). Benches call this after
  /// setup so reports cover only the measured phase.
  void Reset() DL_EXCLUDES(mu_);

  /// Structured point-in-time copy of every instrument (exporters and the
  /// flight recorder consume this; SnapshotJson() is built on top of it).
  RegistrySnapshot Snapshot() const DL_EXCLUDES(mu_);

  /// Machine-readable dump:
  ///   {"counters": [{"name","labels","value"}...],
  ///    "gauges":   [{"name","labels","value"}...],
  ///    "histograms":[{"name","labels","count","sum","max",
  ///                   "p50","p90","p99","bounds":[...],"buckets":[...]}]}
  Json SnapshotJson() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> metric;
  };

  static std::string Key(const std::string& name, const Labels& labels);

  // Leaf lock (DESIGN.md §8): no other lock is ever acquired under it.
  // Instrument *values* are atomics — mu_ guards only the maps, so Get*
  // hits it once per call site (callers cache the returned pointer).
  mutable Mutex mu_{"obs.metrics.mu"};
  std::map<std::string, Entry<Counter>> counters_ DL_GUARDED_BY(mu_);
  std::map<std::string, Entry<Gauge>> gauges_ DL_GUARDED_BY(mu_);
  std::map<std::string, Entry<Histogram>> histograms_ DL_GUARDED_BY(mu_);
};

/// Refreshes process-level gauges in `registry` from their live sources:
/// `buffer_pool.bytes_in_use` / `buffer_pool.acquires` from
/// `dl::BufferPool::Default()` and
/// `process.bytes_copied` from `dl::TotalBytesCopied()`. These sources live
/// below the obs layer (dl_util cannot depend on dl_obs), so they are
/// pulled at sample time instead of pushed: the flight recorder calls this
/// on every tick and the debug server calls it before rendering /metrics,
/// which keeps the gauges fresh exactly when someone is looking.
void SampleProcessGauges(MetricsRegistry& registry);

/// Mirrors the util-layer lock-contention registry (util/lock_stats.h)
/// into `registry`: per-lock `lock.wait_us{lock=}` / `lock.contentions
/// {lock=}` plus unlabeled process aggregates. Gauges, not counters — a
/// gauge Set is idempotent, so concurrent scrapers (flight recorder tick
/// racing a /metrics request) cannot double-apply a delta. Called by
/// SampleProcessGauges; exposed for tests.
void SampleLockStats(MetricsRegistry& registry);

/// RAII microsecond timer: observes the elapsed time into `hist` on
/// destruction (pass nullptr to disable). Collapses the common
/// "Stopwatch + Observe" pair at call sites.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram* hist)
      : hist_(hist), start_us_(hist ? NowMicros() : 0) {}
  ~ScopedTimerUs() {
    if (hist_ != nullptr) hist_->ObserveSinceMicros(start_us_);
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* hist_;
  int64_t start_us_;
};

}  // namespace dl::obs

#endif  // DEEPLAKE_OBS_METRICS_H_
