// Shared pieces of lakebench: run options, clocks, order
// statistics, the in-memory span recorder and the per-run outcome.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fault injected into the storage below the simulated network during
  /// the measured phase: "" (none), "wrong-byte" or "storage-fault".
  std::string inject;
};

/// What one workload run produced. `metrics` holds every metric the
/// workload measured, end-to-end and per-layer, keyed by its public name.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

int64_t NowNs();
double SecondsSince(int64_t start_ns);
/// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();

/// Bytes the program has in use on the heap, as the allocator counts them
/// (mallinfo2: arena bytes in use plus mmapped chunks). Unlike the
/// resident size it does not depend on how much freed memory the allocator
/// happens to keep.
double HeapInUseBytes();

/// Samples `HeapInUseBytes() - excluded()` every 10 ms, on a thread of its
/// own that sleeps between samples, from construction until Stop(). It
/// keeps the largest value of each 1-second window and reports the median
/// of those window peaks, which one stray spike does not move.
class HeapPeakSampler {
 public:
  explicit HeapPeakSampler(std::function<double()> excluded);
  ~HeapPeakSampler() { Stop(); }

  HeapPeakSampler(const HeapPeakSampler&) = delete;
  HeapPeakSampler& operator=(const HeapPeakSampler&) = delete;

  /// Stops sampling (after one last sample) and returns the median window
  /// peak in MB.
  double Stop();
  /// CPU time the sampler thread used, in seconds; settled by Stop().
  double cpu_seconds() const { return cpu_seconds_; }

 private:
  void Sample();

  std::function<double()> excluded_;
  // Written by the sampler thread until Stop() joins it.
  std::vector<double> window_peaks_;  // bytes
  double window_peak_ = 0;
  int window_samples_ = 0;
  double cpu_seconds_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]. 0 for an empty input.
double Percentile(std::vector<double> v, double p);
double Sum(const std::vector<double>& v);

/// Runs `fn(i)` for i in [0, n) on `threads` threads (the calling thread
/// is one of them) and returns when all are done.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

/// Sleeps until the steady clock reaches `deadline_ns`.
void SleepUntil(int64_t deadline_ns);

// ---------------------------------------------------------------------------
// Spans. The benchmark records one around each call it makes into a module
// (Dataloader::Next, RunQuery, a transaction body and its publish,
// ReadRow, every storage probe and codec probe operation). Each span names
// its parent — the span open on the same thread when it began — and carries
// the id of the operation it belongs to; threads with no open span (loader
// workers) take the ambient operation id. Spans stay in memory until the
// workload reads them back at the end of the traced phase.
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string_view name;  // always a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  /// Operation id that spans on threads without an open span inherit.
  void set_ambient_op(uint64_t op) { ambient_op_.store(op); }
  uint64_t ambient_op() const { return ambient_op_.load(); }

  void Record(const Span& span);
  /// Hands back every span recorded so far and clears the store.
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> ambient_op_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; does nothing while tracing is off. `op` 0 inherits the
/// parent's operation (or the ambient one).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, uint64_t op = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  const Span* saved_parent_ = nullptr;
};

/// Durations (ms) of the spans named `name`.
std::vector<double> SpanMs(const std::vector<Span>& spans,
                           std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
