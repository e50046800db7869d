#ifndef DEEPLAKE_STREAM_DATALOADER_H_
#define DEEPLAKE_STREAM_DATALOADER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/context.h"
#include "obs/metrics.h"
#include "stream/read_cost.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dl::stream {

/// One collated batch: per-tensor lists of samples in row order.
struct Batch {
  uint64_t size = 0;
  std::map<std::string, std::vector<tsf::Sample>> columns;

  /// Collates a column into one contiguous buffer (deep-learning native
  /// layout, batch-major). Fails if the column's samples are ragged.
  Result<tsf::Sample> Stacked(const std::string& column) const;
};

/// A row in flight through the pipeline.
using Row = std::map<std::string, tsf::Sample>;

/// Per-sample user transform, run inside worker threads (paper §4.6: the
/// transformation executes in parallel outside the interpreter lock — here,
/// plainly on the pool).
using TransformFn = std::function<Status(Row&)>;

struct DataloaderOptions {
  uint64_t batch_size = 32;
  /// Fetch/decode worker threads.
  size_t num_workers = 4;
  /// Streaming shuffle (paper §3.5): work units are visited in random
  /// order and decoded rows pass through a reservoir buffer.
  bool shuffle = false;
  /// Rows held in the shuffle reservoir.
  size_t shuffle_buffer_rows = 512;
  uint64_t seed = 42;
  /// Max work units (≈ chunks) fetched ahead of consumption, and the most
  /// chunks of each non-primary tensor kept between the units that read
  /// them; bounds memory (paper §4.6 "predicting memory consumption").
  size_t prefetch_units = 8;
  bool drop_last = false;
  /// Tensors to stream; empty = all visible tensors.
  std::vector<std::string> tensors;
  TransformFn transform;
  /// Trace context of the owning job (DESIGN.md §7): installed on every
  /// worker while it processes a unit and on the consumer inside Next(),
  /// so loader spans — and the storage spans beneath them — share one
  /// trace id and carry the job's tenant label. Default (empty) costs
  /// nothing; create one with obs::Context::ForJob("tenant", "job").
  obs::Context context;
};

/// Epoch counters. Thread-safety contract (all fields are also mirrored
/// into the obs::MetricsRegistry, family `loader.*`):
///
///  - *Consumer-thread-only*: `rows_delivered`, `batches_delivered`,
///    `stall_micros`, `units` are written exclusively inside Next() while
///    holding the loader mutex. The consumer thread may read them between
///    Next() calls without synchronization; other threads may not.
///
///  - *Mutex-guarded (worker-written)*: `fetch_micros`, `decode_micros`,
///    `transform_micros`, `peak_shared_chunks` are written by worker
///    threads under the loader mutex. Read them only after the epoch has
///    drained (Next() returned false, or the loader was destroyed) — a
///    mid-epoch read from the consumer thread races with workers.
///
/// The per-stage micros sum CPU/IO time *across all workers*: with N
/// workers their total can legitimately exceed wall time (stages overlap).
struct DataloaderStats {
  uint64_t rows_delivered = 0;
  uint64_t batches_delivered = 0;
  /// Time Next() spent blocked waiting for the pipeline.
  int64_t stall_micros = 0;
  /// Work units (chunk-aligned ranges) processed: in order mode, units the
  /// consumer has drained; in shuffle mode, units whose rows all reached
  /// the shuffle reservoir.
  uint64_t units = 0;
  /// Worker time spent in storage reads: whole-chunk Gets, the header and
  /// sample-run GetRanges of sparse chunks, and tiled/tail reads (the
  /// tiled/tail path folds its decode into this figure).
  int64_t fetch_micros = 0;
  /// Worker time spent parsing chunks and materializing samples.
  int64_t decode_micros = 0;
  /// Worker time spent inside the user transform.
  int64_t transform_micros = 0;
  /// Most chunks of non-primary tensors resident at once. Per tensor that
  /// is at most the chunks in-flight units hold plus `prefetch_units` idle
  /// ones, however the units are ordered.
  uint64_t peak_shared_chunks = 0;
  /// Process-wide bytes deep-copied through the Buffer/Slice layer while
  /// this loader ran (delta of dl::TotalBytesCopied(), sampled in Next()).
  /// Consumer-thread-only, like rows_delivered. The steady-state epoch loop
  /// over raw/uncompressed htypes should keep this near zero (DESIGN.md
  /// §10); collation via Batch::Stacked is counted.
  uint64_t bytes_copied = 0;
};

/// Streaming dataloader (paper §4.6): schedules chunk-aligned fetches,
/// decompresses in parallel workers, applies user transforms, shuffles via
/// a buffer, and collates batches — while a bounded prefetch window keeps
/// memory flat and the consumer (GPU) fed.
///
/// Fetches (DESIGN.md §6, "Sparse reads and shared chunks"): a unit reads
/// its primary chunk whole when it wants all of it; when it wants only
/// some samples of an uncompressed chunk it reads the header and the
/// wanted samples by byte range if the fitted ReadCostModel says that is
/// cheaper. Every other tensor's chunk is fetched by the first unit that
/// reads it and shared with later ones while it stays resident (see
/// DataloaderOptions::prefetch_units).
///
/// Iterate: `while (loader.Next(&batch)) { ... }`. One pass; construct a
/// new loader per epoch (cheap).
class Dataloader {
 public:
  /// Streams the whole dataset in index order (or shuffled).
  Dataloader(std::shared_ptr<tsf::Dataset> dataset, DataloaderOptions options);

  /// Streams a query view's rows in the view's order (paper §4.4 "seamless
  /// integration with the dataloader for filtered streaming"). Sparse views
  /// produce units that want a few samples of each chunk; over a
  /// high-latency store they are read by byte range (§3.5).
  Dataloader(std::shared_ptr<tsf::Dataset> dataset,
             const tql::DatasetView& view, DataloaderOptions options);

  ~Dataloader();

  Dataloader(const Dataloader&) = delete;
  Dataloader& operator=(const Dataloader&) = delete;

  /// Produces the next batch; returns false at end of stream. On worker
  /// errors, returns the first error and stops.
  Result<bool> Next(Batch* out) DL_EXCLUDES(mu_);

  /// Unlocked by design — see the DataloaderStats thread-safety contract:
  /// consumer-thread fields are safe between Next() calls; worker-written
  /// fields only after the epoch drains.
  const DataloaderStats& stats() const DL_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }

 private:
  // A chunk of one streamed tensor: (index into tensors_, chunk id).
  using ChunkRef = std::pair<size_t, uint64_t>;

  // How one row's sample of one streamed tensor is served.
  struct Slot {
    enum Source : uint8_t {
      kEmpty,  // the tensor is shorter than the dataset: empty placeholder
      kRead,   // Tensor::Read (tiled samples, the unflushed tail)
      kChunk,  // sample `local_index` of chunk `chunk_id`
    };
    Source source = kEmpty;
    uint64_t chunk_id = 0;
    uint64_t local_index = 0;
  };

  // Everything a unit reads, decided once by PlanUnits.
  struct Unit {
    uint64_t seq;                  // completion-order key (sequential mode)
    std::vector<uint64_t> rows;    // dataset row indices
    // Row-major, one per row and streamed tensor:
    // slots[r * tensors_.size() + k].
    std::vector<Slot> slots;
    // The primary chunk the kChunk primary slots read (all rows of a unit
    // share it).
    std::optional<tsf::ChunkEncoder::Location> primary_chunk;
    // Sorted local indices of the primary chunk's samples the rows read.
    std::vector<uint64_t> wanted;
    // Chunks of the other tensors the rows read, each once.
    std::vector<ChunkRef> shared;
  };

  // A non-primary chunk, fetched by the first unit that needs it. The
  // entry goes when the last unit that planned to read it finishes; its
  // chunk may be dropped earlier while no unit holds it (ReleaseShared).
  struct SharedChunk {
    size_t users = 0;    // planned units not yet finished
    size_t holders = 0;  // in-flight units that acquired it
    uint64_t last_use = 0;  // shared_clock_ at the latest acquire
    bool fetching = false;
    Status error;
    std::shared_ptr<tsf::Chunk> chunk;
  };

  // Per-unit stage times, merged into stats_ once at unit end.
  struct UnitTimes {
    int64_t fetch_us = 0;
    int64_t decode_us = 0;
    int64_t transform_us = 0;
  };

  /// Resolves the streamed tensors, plans units over `order` (dataset row
  /// indices) and submits them.
  void Start(const std::vector<uint64_t>& order) DL_EXCLUDES(mu_);
  void ProcessUnit(const Unit& unit) DL_EXCLUDES(mu_);

  /// Builds work units aligned to primary_'s chunks from the ordered row
  /// list, deciding for each row and tensor what serves it (Slot).
  std::vector<Unit> PlanUnits(const std::vector<uint64_t>& order) const;

  /// One timed storage read of chunk `key` (whole when `range` is null);
  /// feeds fetch stats and cost_.
  Result<Slice> ReadChunkBytes(const tsf::Tensor& t, const std::string& key,
                               const ByteRange* range, UnitTimes* times);
  /// Fetches and parses one whole chunk.
  Result<std::shared_ptr<tsf::Chunk>> FetchWholeChunk(const tsf::Tensor& t,
                                                      uint64_t chunk_id,
                                                      UnitTimes* times);
  /// The primary chunk at `loc` holding at least `wanted`: whole, or the
  /// header and the wanted samples' byte runs when that is cheaper.
  Result<std::shared_ptr<tsf::Chunk>> FetchPrimaryChunk(
      const tsf::Tensor& t, const tsf::ChunkEncoder::Location& loc,
      const std::vector<uint64_t>& wanted, UnitTimes* times);
  /// The header bytes to request when reading the header and the wanted
  /// samples by range costs less than one whole Get under `cost`; nullopt
  /// otherwise. Without a fitted `cost`, ranged when the wanted samples
  /// span enough bytes to fit one.
  std::optional<uint64_t> PlanRangedRead(
      const tsf::Tensor& t, const tsf::ChunkEncoder::Location& loc,
      const std::vector<uint64_t>& wanted,
      const std::optional<ReadCost>& cost) const;
  Result<std::shared_ptr<tsf::Chunk>> AcquireShared(const ChunkRef& ref,
                                                    UnitTimes* times)
      DL_EXCLUDES(mu_);
  /// Ends `unit`'s use of its shared chunks (`held`: those it acquired)
  /// and drops idle chunks past the per-tensor cap.
  void ReleaseShared(const Unit& unit, const std::vector<ChunkRef>& held)
      DL_EXCLUDES(mu_);

  std::shared_ptr<tsf::Dataset> dataset_;
  DataloaderOptions options_;
  // Streamed (name, tensor) pairs, resolved once in Start(); dataset_
  // keeps the tensors alive.
  std::vector<std::pair<std::string, tsf::Tensor*>> tensors_;
  // Index in tensors_ of the finest-chunked tensor, whose chunks units
  // align to (SIZE_MAX when no tensor is streamed).
  size_t primary_ = SIZE_MAX;
  std::vector<Unit> units_;
  std::unique_ptr<ThreadPool> pool_;
  ReadCostModel cost_;

  // Leaf lock (DESIGN.md §8): workers and the consumer never acquire
  // another dl::Mutex while holding it (registry instruments are atomics).
  Mutex mu_{"stream.dataloader.mu"};
  // Ordered prefetch window: the task at visit position k may start only
  // once k < start_allowance_. Admission strictly by position prevents
  // later units from stealing window slots from the unit the (in-order)
  // consumer is waiting on — a semaphore here can deadlock by priority
  // inversion.
  size_t start_allowance_ DL_GUARDED_BY(mu_) = 0;
  CondVar gate_cv_;
  CondVar ready_cv_;
  // Sequential mode: per-unit progress keyed by seq; rows stream in as
  // they decode (the consumer never waits for a whole unit), and are
  // consumed strictly in seq order.
  struct UnitProgress {
    std::vector<Row> rows;
    size_t taken = 0;
    bool done = false;
  };
  std::map<uint64_t, UnitProgress> completed_ DL_GUARDED_BY(mu_);
  uint64_t next_seq_ DL_GUARDED_BY(mu_) = 0;
  // Shuffle mode: reservoir of decoded rows.
  std::vector<Row> reservoir_ DL_GUARDED_BY(mu_);
  CondVar reservoir_cv_;
  size_t units_done_ DL_GUARDED_BY(mu_) = 0;
  // Shuffle mode: units whose rows all reached the reservoir; Next()
  // copies it into stats_.units.
  uint64_t units_published_ DL_GUARDED_BY(mu_) = 0;
  Status first_error_ DL_GUARDED_BY(mu_);
  bool abort_ DL_GUARDED_BY(mu_) = false;
  std::map<ChunkRef, SharedChunk> shared_ DL_GUARDED_BY(mu_);
  uint64_t shared_clock_ DL_GUARDED_BY(mu_) = 0;
  // Entries of shared_ whose chunk is resident.
  uint64_t shared_resident_ DL_GUARDED_BY(mu_) = 0;
  CondVar shared_cv_;

  // Carry-over rows between Next() calls (batch boundary inside a unit).
  // Touched only by the consumer thread inside Next(), but always under
  // mu_ anyway (Next() holds it throughout), so the annotation is honest.
  std::vector<Row> pending_rows_ DL_GUARDED_BY(mu_);
  Rng shuffle_rng_{42};  // consumer-thread only (used inside Next())

  DataloaderStats stats_;  // see stats() for the mixed guarding contract
  // Registry instruments (family `loader.*`), cached once in Start() so
  // the hot path touches only atomics. Workers observe per-op latencies;
  // stats_ aggregates per-stage totals for the epoch summary.
  obs::Histogram* fetch_hist_ = nullptr;
  obs::Histogram* decode_hist_ = nullptr;
  obs::Histogram* transform_hist_ = nullptr;
  obs::Histogram* stall_hist_ = nullptr;
  obs::Counter* rows_counter_ = nullptr;
  obs::Counter* bytes_copied_counter_ = nullptr;
  // Last TotalBytesCopied() sample; Next() accumulates deltas into
  // stats_.bytes_copied. Consumer-thread only.
  uint64_t copied_watermark_ = 0;
  // Decoded-but-undelivered rows (reservoir + completed units + pending).
  // A rising series means the consumer is the bottleneck; pinned at zero
  // means the loader is — the flight-recorder signal for Fig. 9 plots.
  obs::Gauge* queued_gauge_ = nullptr;
};

}  // namespace dl::stream

#endif  // DEEPLAKE_STREAM_DATALOADER_H_
