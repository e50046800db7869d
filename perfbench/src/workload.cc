#include "workload.h"

#include <cstdio>

#include "sim/network_model.h"

namespace perfbench {

namespace {

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetupRepeats = 5;

double PerRow(double value, uint64_t rows) {
  return rows == 0 ? 0 : value / static_cast<double>(rows);
}

}  // namespace

ProbedStack::ProbedStack(const dl::sim::NetworkModel& model)
    : memory(std::make_shared<dl::storage::MemoryStore>()),
      lower(std::make_shared<ProbeStore>(memory, ProbeStore::Layer::kLower)),
      upper(std::make_shared<ProbeStore>(
          std::make_shared<dl::sim::SimulatedObjectStore>(lower, model),
          ProbeStore::Layer::kUpper)),
      top(upper) {}

void ProbedStack::ResetCounters() {
  lower->ResetCounters();
  upper->ResetCounters();
}

void ArmInjectedFault(const Options& options, ProbedStack& stack) {
  if (options.inject == "storage-fault") {
    stack.lower->ArmFaults(/*fail_every=*/7, "");
  } else if (options.inject == "wrong-byte") {
    stack.lower->ArmFaults(0, "tensors/labels/chunks/");
  }
}

dl::Status RunWorkload(Workload& workload, const Options& options,
                       Outcome* out) {
  Metrics& m = out->metrics;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t start = NowNs();
    dl::Status st = workload.Setup();
    if (!st.ok()) return st;
    setups.push_back(SecondsSince(start));
  }
  m["setup_s"] = Median(setups);
  ArmInjectedFault(options, workload.stack());

  // Verify runs after each phase's clock, memory and probe counters are
  // read and with tracing off, so its own reads count in none of them.
  auto timed = [&](double seconds, Metrics* metrics, double* wall_s,
                   double* cpu_s) {
    double cpu0 = ProcessCpuSeconds();
    int64_t start = NowNs();
    uint64_t rows = workload.Measure(seconds, out, metrics);
    *wall_s = SecondsSince(start);
    *cpu_s = ProcessCpuSeconds() - cpu0;
    return rows;
  };

  double wall = 0, cpu = 0;
  if (!options.trace) {
    // Peak memory of the measured phase: the heap the program has in use,
    // less the bytes the in-memory object store (the stand-in for S3 or a
    // disk) holds.
    dl::storage::MemoryStore& store = *workload.stack().memory;
    HeapPeakSampler heap(
        [&store] { return static_cast<double>(store.TotalBytes()); });
    uint64_t rows = timed(options.seconds, &m, &wall, &cpu);
    m["peak_rss_mb"] = heap.Stop();
    cpu -= heap.cpu_seconds();  // the sampler is the benchmark's own
    m["samples_per_s"] = static_cast<double>(rows) / wall;
    m["cpu_ms_per_sample"] = PerRow(cpu * 1e3, rows);
    workload.Verify(out);
  } else {
    // Untraced half: the baseline throughput and the workload's own
    // latency figures. Traced half, after a fresh set-up so that both
    // halves start from the same state: spans and probe counters.
    double half = options.seconds / 2;
    uint64_t rows = timed(half, &m, &wall, &cpu);
    double untraced_rate = static_cast<double>(rows) / wall;
    workload.Verify(out);

    DL_RETURN_IF_ERROR(workload.Setup());
    ArmInjectedFault(options, workload.stack());
    workload.stack().ResetCounters();  // set-up wrote through the probes
    Tracer& tracer = Tracer::Global();
    tracer.Take();
    tracer.set_enabled(true);
    Metrics traced_latencies;  // latency figures come from the untraced half
    rows = timed(half, &traced_latencies, &wall, &cpu);
    tracer.set_enabled(false);
    std::vector<Span> spans = tracer.Take();
    workload.LayerMetrics(spans, wall, rows, &m);
    double traced_rate = static_cast<double>(rows) / wall;
    m["obs.trace_overhead_share"] =
        untraced_rate > 0 ? 1 - traced_rate / untraced_rate : 0;
    workload.Verify(out);
  }
  m["failed_op_share"] =
      out->attempted == 0 ? 1
                          : static_cast<double>(out->failed) /
                                static_cast<double>(out->attempted);
  return dl::Status::OK();
}

dl::Status CreateTensors(dl::tsf::Dataset& ds,
                         const std::string& image_compression) {
  dl::tsf::TensorOptions image_opts;
  image_opts.htype = "image";
  image_opts.sample_compression = image_compression;
  dl::tsf::TensorOptions label_opts;
  label_opts.htype = "class_label";
  dl::tsf::TensorOptions id_opts;
  id_opts.dtype = "int64";
  DL_RETURN_IF_ERROR(ds.CreateTensor("images", image_opts).status());
  DL_RETURN_IF_ERROR(ds.CreateTensor("labels", label_opts).status());
  return ds.CreateTensor("ids", id_opts).status();
}

std::map<std::string, dl::tsf::Sample> MakeRow(int64_t id,
                                               dl::sim::SampleSpec s) {
  std::map<std::string, dl::tsf::Sample> row;
  row["images"] = dl::tsf::Sample(dl::tsf::DType::kUInt8,
                                  dl::tsf::TensorShape(s.shape),
                                  std::move(s.pixels));
  row["labels"] = dl::tsf::Sample::Scalar(s.label, dl::tsf::DType::kInt32);
  row["ids"] = dl::tsf::Sample::Scalar(id, dl::tsf::DType::kInt64);
  return row;
}

void CodecLayerMetrics(dl::tsf::Tensor& images, Metrics* metrics) {
  CodecTimes codec = ProbeCodec(images, /*max_frames=*/32);
  if (codec.skipped_frames > 0) {
    std::fprintf(stderr, "lakebench: codec probe skipped %zu frames\n",
                 codec.skipped_frames);
  }
  (*metrics)["compress.lz77_decode_us_per_sample"] = codec.lz77_decode_us;
  (*metrics)["compress.unfilter_us_per_sample"] = codec.unfilter_us;
  (*metrics)["compress.image_encode_us_per_sample"] = codec.image_encode_us;
}

PassResult StreamPass(
    const std::function<std::unique_ptr<dl::stream::Dataloader>()>& make,
    int64_t deadline_ns,
    const std::function<void(const dl::stream::Batch&)>& check,
    uint64_t op) {
  Tracer& tracer = Tracer::Global();
  if (op == 0) op = tracer.NewId();
  tracer.set_ambient_op(op);
  ScopedSpan pass_span("stream.pass", op);
  PassResult result;
  int64_t start = NowNs();
  std::unique_ptr<dl::stream::Dataloader> loader = make();
  dl::stream::Batch batch;
  while (true) {
    dl::Result<bool> more = false;
    {
      ScopedSpan span("stream.next");
      more = loader->Next(&batch);
    }
    if (!more.ok()) {
      result.failed = true;
      break;
    }
    if (!*more) {
      result.finished = true;
      result.stats = loader->stats();
      break;
    }
    if (result.first_batch_ms < 0) {
      result.first_batch_ms = static_cast<double>(NowNs() - start) / 1e6;
    }
    result.rows += batch.size;
    check(batch);
    if (NowNs() >= deadline_ns) break;
  }
  return result;
}

int64_t RowOracle::Check(const dl::stream::Batch& batch, uint64_t k,
                         const std::vector<uint8_t>& wanted, bool* ok) {
  *ok = false;
  auto ids = batch.columns.find("ids");
  auto lbl = batch.columns.find("labels");
  auto img = batch.columns.find("images");
  if (ids == batch.columns.end() || lbl == batch.columns.end() ||
      img == batch.columns.end() || k >= ids->second.size() ||
      k >= lbl->second.size() || k >= img->second.size()) {
    return -1;
  }
  int64_t id = ids->second[k].AsInt();
  if (id < 0 || static_cast<size_t>(id) >= seen.size()) return -1;
  *ok = wanted[id] && !seen[id] && lbl->second[k].AsInt() == labels[id] &&
        img->second[k].shape.dims() == image_shape;
  if (!seen[id]) {
    seen[id] = 1;
    ++seen_count;
  }
  return id;
}

void StreamLayerMetrics(const std::vector<Span>& spans, double wall_s,
                        const std::vector<dl::stream::DataloaderStats>& passes,
                        Metrics* metrics) {
  Metrics& m = *metrics;
  std::vector<double> fetch_ms, decode_ms, units;
  double rows = 0, all_units = 0;
  for (const auto& s : passes) {
    fetch_ms.push_back(static_cast<double>(s.fetch_micros) / 1e3);
    decode_ms.push_back(static_cast<double>(s.decode_micros) / 1e3);
    units.push_back(static_cast<double>(s.units));
    rows += static_cast<double>(s.rows_delivered);
    all_units += static_cast<double>(s.units);
  }
  m["stream.stall_share"] = Sum(SpanMs(spans, "stream.next")) / 1e3 / wall_s;
  m["stream.fetch_ms"] = Median(fetch_ms);
  m["stream.decode_ms"] = Median(decode_ms);
  m["stream.units"] = Median(units);
  m["stream.rows_per_unit"] = all_units == 0 ? 0 : rows / all_units;
}

void StorageLayerMetrics(const ProbedStack& stack,
                         const std::vector<Span>& spans, uint64_t rows,
                         uint64_t user_bytes, Metrics* metrics) {
  Metrics& m = *metrics;
  const ProbeStore::Counters& up = stack.upper->counters();
  double upper_read_ms = Sum(SpanMs(spans, "storage.upper.get")) +
                         Sum(SpanMs(spans, "storage.upper.get_range"));
  double lower_read_ms = Sum(SpanMs(spans, "storage.lower.get")) +
                         Sum(SpanMs(spans, "storage.lower.get_range"));
  double upper_write_ms = Sum(SpanMs(spans, "storage.upper.put"));
  double lower_write_ms = Sum(SpanMs(spans, "storage.lower.put"));

  m["storage.get.count"] = PerRow(static_cast<double>(up.gets), rows);
  m["storage.get_range.count"] =
      PerRow(static_cast<double>(up.get_ranges), rows);
  m["storage.put.count"] = PerRow(static_cast<double>(up.puts), rows);
  m["storage.bytes_read_per_sample"] =
      PerRow(static_cast<double>(up.bytes_read), rows);
  m["storage.rows_per_chunk_fetch"] =
      up.chunk_reads == 0 ? 0
                          : static_cast<double>(rows) /
                                static_cast<double>(up.chunk_reads);
  m["storage.read_busy_ms"] = PerRow(upper_read_ms, rows);
  m["sim.net_wait_ms"] = PerRow(
      upper_read_ms + upper_write_ms - lower_read_ms - lower_write_ms, rows);
  m["storage.bytes_written_per_user_byte"] =
      user_bytes == 0 ? 0
                      : static_cast<double>(up.bytes_written) /
                            static_cast<double>(user_bytes);
  m["storage.errors"] = static_cast<double>(up.errors);
}

}  // namespace perfbench
