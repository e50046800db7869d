#include "obs/flight_recorder.h"

#include <algorithm>

#include "util/clock.h"

namespace dl::obs {

FlightRecorder::FlightRecorder(MetricsRegistry* registry)
    : FlightRecorder(registry, Options()) {}

FlightRecorder::FlightRecorder(MetricsRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  options_.interval_us = std::max<int64_t>(1000, options_.interval_us);
  options_.max_samples = std::max<size_t>(2, options_.max_samples);
}

FlightRecorder::~FlightRecorder() {
  Status s = Stop();  // Stop() on a stopped recorder is OK; never fails
  (void)s;
}

void FlightRecorder::WatchCounter(const std::string& name,
                                  const Labels& labels, std::string alias) {
  CounterWatch w;
  w.alias = alias.empty() ? name : std::move(alias);
  w.counter = registry_->GetCounter(name, labels);
  MutexLock lock(mu_);
  counters_.push_back(std::move(w));
}

void FlightRecorder::WatchGauge(const std::string& name, const Labels& labels,
                                std::string alias) {
  GaugeWatch w;
  w.alias = alias.empty() ? name : std::move(alias);
  w.gauge = registry_->GetGauge(name, labels);
  MutexLock lock(mu_);
  gauges_.push_back(std::move(w));
}

void FlightRecorder::WatchHistogram(const std::string& name,
                                    const Labels& labels, std::string alias) {
  HistogramWatch w;
  w.alias = alias.empty() ? name : std::move(alias);
  w.hist = registry_->GetHistogram(name, labels);
  MutexLock lock(mu_);
  histograms_.push_back(std::move(w));
}

Status FlightRecorder::Start() {
  MutexLock lock(mu_);
  if (running_ || stopping_) {
    return Status::FailedPrecondition("flight recorder already running");
  }
  samples_.clear();
  dropped_ = 0;
  stop_ = false;
  running_ = true;
  start_us_ = NowMicros();
  last_us_ = start_us_;
  // Baseline pass: deltas on the first real sample measure from Start(),
  // not from whatever the instruments accumulated before it.
  for (auto& w : counters_) w.prev = w.counter->Value();
  for (auto& w : histograms_) {
    w.prev_count = w.hist->Count();
    w.prev_buckets = w.hist->BucketCounts();
  }
  // Spawned under the lock: Run() blocks on mu_ until Start() returns, and
  // no concurrent Start/Stop can observe a half-initialized thread_.
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

Status FlightRecorder::Stop() {
  std::thread to_join;
  {
    MutexLock lock(mu_);
    if (!running_) return Status::OK();
    if (stopping_) {
      // Another Stop() owns the shutdown; wait until it completes so every
      // Stop() caller returns with the recorder fully stopped.
      while (running_) cv_.Wait(mu_);
      return Status::OK();
    }
    stopping_ = true;
    stop_ = true;
    to_join = std::move(thread_);
  }
  cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
  // Final sample after the thread quiesced: the tail of the run (anything
  // since the last tick) makes it into the series.
  SampleOnce();
  {
    MutexLock lock(mu_);
    running_ = false;
    stopping_ = false;
  }
  cv_.NotifyAll();
  return Status::OK();
}

bool FlightRecorder::running() const {
  MutexLock lock(mu_);
  return running_;
}

void FlightRecorder::Run() {
  while (true) {
    {
      MutexLock lock(mu_);
      int64_t deadline = NowMicros() + options_.interval_us;
      while (!stop_) {
        int64_t now = NowMicros();
        if (now >= deadline) break;
        bool notified = cv_.WaitForMicros(mu_, deadline - now);
        (void)notified;  // stop_ is re-checked either way
      }
      if (stop_) return;
    }
    SampleOnce();
  }
}

void FlightRecorder::SampleOnce() {
  // Pull-model gauges (buffer pool occupancy, process bytes-copied) have no
  // reporter thread of their own; refresh them so watches read live values.
  SampleProcessGauges(*registry_);
  MutexLock lock(mu_);
  int64_t now = NowMicros();
  Sample s;
  s.t_us = now - start_us_;
  s.dt_us = std::max<int64_t>(1, now - last_us_);
  last_us_ = now;
  double per_sec_scale = 1e6 / static_cast<double>(s.dt_us);
  for (auto& w : counters_) {
    uint64_t cur = w.counter->Value();
    // Reset() mid-run makes the counter go backwards; clamp to zero
    // rather than emitting a huge unsigned wraparound.
    uint64_t delta = cur >= w.prev ? cur - w.prev : 0;
    w.prev = cur;
    s.values[w.alias] = static_cast<double>(delta);
    s.values[w.alias + "_per_sec"] =
        static_cast<double>(delta) * per_sec_scale;
  }
  for (auto& w : gauges_) {
    s.values[w.alias] = w.gauge->Value();
  }
  for (auto& w : histograms_) {
    uint64_t count = w.hist->Count();
    std::vector<uint64_t> buckets = w.hist->BucketCounts();
    std::vector<uint64_t> delta(buckets.size(), 0);
    for (size_t i = 0; i < buckets.size(); ++i) {
      uint64_t prev = i < w.prev_buckets.size() ? w.prev_buckets[i] : 0;
      delta[i] = buckets[i] >= prev ? buckets[i] - prev : 0;
    }
    uint64_t count_delta = count >= w.prev_count ? count - w.prev_count : 0;
    w.prev_count = count;
    w.prev_buckets = std::move(buckets);
    // Overflow-bucket hits report the cumulative max: the interval's own
    // max is unknowable from bucket deltas.
    double max = w.hist->Max();
    s.values[w.alias + "_count"] = static_cast<double>(count_delta);
    s.values[w.alias + "_p50"] =
        BucketQuantile(w.hist->bounds(), delta, 0.50, max);
    s.values[w.alias + "_p99"] =
        BucketQuantile(w.hist->bounds(), delta, 0.99, max);
  }
  samples_.push_back(std::move(s));
  while (samples_.size() > options_.max_samples) {
    samples_.erase(samples_.begin());
    ++dropped_;
  }
}

std::vector<FlightRecorder::Sample> FlightRecorder::Samples() const {
  MutexLock lock(mu_);
  return samples_;
}

uint64_t FlightRecorder::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

Json FlightRecorder::TimelineJson() const {
  Json samples = Json::MakeArray();
  for (const Sample& s : Samples()) {
    Json item = Json::MakeObject();
    item.Set("t_us", s.t_us);
    item.Set("dt_us", s.dt_us);
    for (const auto& [k, v] : s.values) item.Set(k, v);
    samples.Append(std::move(item));
  }
  Json doc = Json::MakeObject();
  doc.Set("interval_us", options_.interval_us);
  doc.Set("dropped", dropped());
  doc.Set("samples", std::move(samples));
  return doc;
}

}  // namespace dl::obs
