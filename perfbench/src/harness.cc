#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double HeapInUseBytes() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

namespace {
constexpr auto kHeapSamplePeriod = std::chrono::milliseconds(10);
constexpr int kHeapSamplesPerWindow = 100;  // 1-second windows
}  // namespace

HeapPeakSampler::HeapPeakSampler(std::function<double()> excluded)
    : excluded_(std::move(excluded)) {
  Sample();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kHeapSamplePeriod, [this] { return stop_; })) {
      lock.unlock();
      Sample();
      lock.lock();
    }
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    cpu_seconds_ =
        static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  });
}

void HeapPeakSampler::Sample() {
  double bytes = HeapInUseBytes() - excluded_();
  window_peak_ = window_samples_ == 0 ? bytes : std::max(window_peak_, bytes);
  if (++window_samples_ == kHeapSamplesPerWindow) {
    window_peaks_.push_back(window_peak_);
    window_samples_ = 0;
  }
}

double HeapPeakSampler::Stop() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Sample();
    if (window_peaks_.empty()) window_peaks_.push_back(window_peak_);
  }
  return Median(window_peaks_) / (1024.0 * 1024.0);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (p >= 100) return v.back();
  if (p == 50 && v.size() % 2 == 0) {
    return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

void SleepUntil(int64_t deadline_ns) {
  int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

namespace {
thread_local const Span* tl_open_span = nullptr;
}  // namespace

ScopedSpan::ScopedSpan(std::string_view name, uint64_t op) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  active_ = true;
  saved_parent_ = tl_open_span;
  span_.id = tracer.NewId();
  span_.name = name;
  span_.parent = saved_parent_ ? saved_parent_->id : 0;
  span_.op = op != 0 ? op
             : saved_parent_ ? saved_parent_->op
                             : tracer.ambient_op();
  tl_open_span = &span_;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_open_span = saved_parent_;
  Tracer::Global().Record(span_);
}

std::vector<double> SpanMs(const std::vector<Span>& spans,
                           std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

}  // namespace perfbench
