// The workload interface, the probed storage stack every workload reads
// through, and the loop that runs set-up, the measured phase and the
// traced phase.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "sim/network_model.h"
#include "sim/workload.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"

namespace perfbench {

/// Loader workers of the read workloads: with the consumer thread that
/// makes the 4 threads the benchmark allows itself (one per core of the
/// 4-core reference machine).
constexpr size_t kLoaderWorkers = 3;
/// Threads the set-up uses to generate and encode inputs.
constexpr int kSetupThreads = 4;

using Metrics = std::map<std::string, double>;

/// MemoryStore <- lower probe <- simulated network <- upper probe. The
/// dataset reads and writes through `top`.
struct ProbedStack {
  std::shared_ptr<dl::storage::MemoryStore> memory;
  std::shared_ptr<ProbeStore> lower;
  std::shared_ptr<ProbeStore> upper;
  dl::storage::StoragePtr top;

  explicit ProbedStack(const dl::sim::NetworkModel& model);
  void ResetCounters();
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the dataset from the generator and opens it, replacing the one
  /// an earlier call built. Timed as `setup_s`.
  virtual dl::Status Setup() = 0;

  /// Runs the workload for `seconds` and returns the rows it completed
  /// (delivered to the consumer, or landed by the appender). Every output
  /// is checked against the generator; each check counts in `out`. The
  /// workload's own latency figures go to `metrics`.
  virtual uint64_t Measure(double seconds, Outcome* out, Metrics* metrics) = 0;

  /// Checks what Measure left behind once its timed window has closed and
  /// its metrics are taken (state that can only be checked at the end,
  /// such as a final head).
  virtual void Verify(Outcome* out) { (void)out; }

  /// Per-layer metrics of a traced Measure call that took `wall_s` and
  /// completed `rows`, from its spans and the probe counters. Called with
  /// tracing off; it reads the probe counters before it touches storage.
  virtual void LayerMetrics(const std::vector<Span>& spans, double wall_s,
                            uint64_t rows, Metrics* metrics) = 0;

  virtual ProbedStack& stack() = 0;
};

std::unique_ptr<Workload> MakeEpochJpegLocal(const Options& options);
std::unique_ptr<Workload> MakeViewRawS3(const Options& options);
std::unique_ptr<Workload> MakeIngestRelabel(const Options& options);

/// Creates the tensors every workload's dataset has: `images` (image htype,
/// sample compression `image_compression`), `labels` (class_label) and
/// `ids` (the sample's generator index, int64).
dl::Status CreateTensors(dl::tsf::Dataset& ds,
                         const std::string& image_compression);

/// Generated sample `s` with generator index `id` as a row of those tensors.
std::map<std::string, dl::tsf::Sample> MakeRow(int64_t id,
                                               dl::sim::SampleSpec s);

/// compress.* metrics of the codec probe over the image tensor `images`.
void CodecLayerMetrics(dl::tsf::Tensor& images, Metrics* metrics);

/// Runs set-up several times (median is `setup_s`), then the measured
/// phase. Untraced, it fills the end-to-end metrics; traced, it splits the
/// time into an untraced and a traced half, sets up again between them,
/// and fills the per-layer ones. Returns a non-OK status when set-up fails.
dl::Status RunWorkload(Workload& workload, const Options& options,
                       Outcome* out);

/// storage.* and sim.* metrics of a traced phase that completed `rows`
/// rows, from the probe spans and counters. `user_bytes` is the payload
/// the workload wrote (0 for read workloads).
void StorageLayerMetrics(const ProbedStack& stack,
                         const std::vector<Span>& spans, uint64_t rows,
                         uint64_t user_bytes, Metrics* metrics);

/// One pass of a loader, as the consumer saw it.
struct PassResult {
  uint64_t rows = 0;
  bool finished = false;  // Next() reported the end of the stream
  bool failed = false;    // Next() returned an error
  double first_batch_ms = -1;  // from construction; -1 if none arrived
  dl::stream::DataloaderStats stats;  // settled only when `finished`
};

/// Builds a loader with `make`, then calls Next() until the stream ends,
/// fails, or `deadline_ns` passes, handing each batch to `check`. Each
/// Next() call is a `stream.next` span inside a `stream.pass` span of
/// operation `op` (0 starts a new operation).
PassResult StreamPass(
    const std::function<std::unique_ptr<dl::stream::Dataloader>()>& make,
    int64_t deadline_ns,
    const std::function<void(const dl::stream::Batch&)>& check,
    uint64_t op = 0);

/// Checks one delivered row of a read workload against the generator:
/// `id` must be wanted (`wanted[id]` set) and not yet `seen`, and carry
/// the generator's label and image shape. Marks it seen.
struct RowOracle {
  const std::vector<int64_t>& labels;  // generator label of each id
  std::vector<uint64_t> image_shape;
  std::vector<uint8_t> seen;
  uint64_t seen_count = 0;

  /// Returns the row's id, or -1 when the batch lacks a column.
  int64_t Check(const dl::stream::Batch& batch, uint64_t k,
                const std::vector<uint8_t>& wanted, bool* ok);
};

/// stream.* metrics of a traced phase from its `stream.next` spans and the
/// stats of the passes that finished in it.
void StreamLayerMetrics(const std::vector<Span>& spans, double wall_s,
                        const std::vector<dl::stream::DataloaderStats>& passes,
                        Metrics* metrics);

/// Arms the lower probe with the fault named by `options.inject`.
void ArmInjectedFault(const Options& options, ProbedStack& stack);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
