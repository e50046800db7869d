#include "stream/dataloader.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/trace.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::stream {

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

Result<tsf::Sample> Batch::Stacked(const std::string& column) const {
  auto it = columns.find(column);
  if (it == columns.end()) {
    return Status::NotFound("batch: no column '" + column + "'");
  }
  const std::vector<tsf::Sample>& samples = it->second;
  if (samples.empty()) {
    return Status::FailedPrecondition("batch: empty column");
  }
  const tsf::TensorShape& shape0 = samples[0].shape;
  for (const auto& s : samples) {
    if (!(s.shape == shape0) || s.dtype != samples[0].dtype) {
      return Status::FailedPrecondition(
          "batch: column '" + column +
          "' is ragged; stack requires uniform shapes (apply a resize "
          "transform)");
    }
  }
  std::vector<uint64_t> out_dims;
  out_dims.push_back(samples.size());
  for (uint64_t d : shape0.dims()) out_dims.push_back(d);
  tsf::TensorShape out_shape(std::move(out_dims));
  if (samples.size() == 1) {
    // A batch of one aliases the sample's buffer — zero copy.
    return tsf::Sample(samples[0].dtype, std::move(out_shape),
                       samples[0].data);
  }
  ByteBuffer staging;
  staging.reserve(samples.size() * samples[0].data.size());
  for (const auto& s : samples) {
    staging.insert(staging.end(), s.data.begin(), s.data.end());
  }
  // Collation is the one copy the batch-major layout forces; account for it
  // so loader.bytes_copied stays an honest end-to-end figure.
  internal::AddBytesCopied(staging.size());
  return tsf::Sample(samples[0].dtype, std::move(out_shape),
                     Slice(std::move(staging)));
}

// ---------------------------------------------------------------------------
// Dataloader
// ---------------------------------------------------------------------------

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      shuffle_rng_(options_.seed) {
  std::vector<uint64_t> order(dataset_->NumRows());
  std::iota(order.begin(), order.end(), uint64_t{0});
  Start(order);
}

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       const tql::DatasetView& view,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      shuffle_rng_(options_.seed) {
  Start(view.indices());
}

Dataloader::~Dataloader() {
  {
    MutexLock lock(mu_);
    abort_ = true;
  }
  reservoir_cv_.NotifyAll();
  gate_cv_.NotifyAll();
  ready_cv_.NotifyAll();
  shared_cv_.NotifyAll();
  pool_.reset();  // joins workers
  // Undeliverable rows still buffered at teardown would otherwise leave
  // the queue-depth gauge stuck above zero for the next epoch's loader.
  // Workers are joined, but take the lock anyway — it is free here and
  // keeps the guarded-access annotations honest.
  if (queued_gauge_ != nullptr) {
    MutexLock lock(mu_);
    double leftover = static_cast<double>(reservoir_.size()) +
                      static_cast<double>(pending_rows_.size());
    for (const auto& [seq, p] : completed_) {
      leftover += static_cast<double>(p.rows.size() - p.taken);
    }
    if (leftover > 0) queued_gauge_->Sub(leftover);
  }
}

std::vector<Dataloader::Unit> Dataloader::PlanUnits(
    const std::vector<uint64_t>& order) const {
  std::vector<Unit> units;
  Unit current;
  current.seq = 0;
  size_t current_ordinal = SIZE_MAX;
  auto close = [&] {
    std::sort(current.wanted.begin(), current.wanted.end());
    current.wanted.erase(
        std::unique(current.wanted.begin(), current.wanted.end()),
        current.wanted.end());
    units.push_back(std::move(current));
    current = Unit{};
    current.seq = units.size();
  };
  for (uint64_t row : order) {
    size_t ordinal = SIZE_MAX;
    if (primary_ != SIZE_MAX) {
      auto loc = tensors_[primary_].second->chunk_encoder().Find(row);
      if (loc.ok()) ordinal = loc->chunk_ordinal;
    }
    // A new unit starts when the primary chunk changes: all rows served by
    // one chunk share one fetch, even when a sparse view skips between
    // them.
    if (!current.rows.empty() && ordinal != current_ordinal) close();
    current_ordinal = ordinal;
    current.rows.push_back(row);
    for (size_t k = 0; k < tensors_.size(); ++k) {
      const tsf::Tensor* t = tensors_[k].second;
      Slot slot;
      if (row < t->NumSamples()) {
        // Tiled samples and the unflushed tail have no chunk to share.
        slot.source = Slot::kRead;
        auto loc = t->chunk_encoder().Find(row);
        if (loc.ok() && !t->tile_encoder().IsTiled(row)) {
          slot = {Slot::kChunk, loc->chunk_id, loc->local_index};
          if (k == primary_) {
            current.primary_chunk = *loc;
            current.wanted.push_back(loc->local_index);
          } else {
            ChunkRef ref{k, loc->chunk_id};
            if (std::find(current.shared.begin(), current.shared.end(),
                          ref) == current.shared.end()) {
              current.shared.push_back(ref);
            }
          }
        }
      }
      current.slots.push_back(slot);
    }
  }
  if (!current.rows.empty()) close();
  return units;
}

void Dataloader::Start(const std::vector<uint64_t>& order) {
  // A streamed name the dataset lacks becomes first_error_: no unit runs
  // and the first Next() returns it.
  for (const std::string& name : options_.tensors.empty()
                                     ? dataset_->TensorNames()
                                     : options_.tensors) {
    auto t = dataset_->GetTensor(name);
    if (!t.ok()) {
      MutexLock lock(mu_);
      first_error_ = t.status();
      break;
    }
    tensors_.emplace_back(name, *t);
  }
  // Pick the finest-chunked tensor as the primary alignment target: its
  // chunk boundaries dominate fetch cost.
  for (size_t k = 0; k < tensors_.size(); ++k) {
    if (primary_ == SIZE_MAX ||
        tensors_[k].second->chunk_encoder().num_chunks() >
            tensors_[primary_].second->chunk_encoder().num_chunks()) {
      primary_ = k;
    }
  }
  units_ = PlanUnits(order);
  {
    MutexLock lock(mu_);
    for (const Unit& unit : units_) {
      for (const ChunkRef& ref : unit.shared) ++shared_[ref].users;
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  fetch_hist_ = registry.GetHistogram("loader.fetch_us");
  decode_hist_ = registry.GetHistogram("loader.decode_us");
  transform_hist_ = registry.GetHistogram("loader.transform_us");
  stall_hist_ = registry.GetHistogram("loader.stall_us");
  rows_counter_ = registry.GetCounter("loader.rows");
  bytes_copied_counter_ = registry.GetCounter("loader.bytes_copied");
  queued_gauge_ = registry.GetGauge("loader.queued_rows");
  copied_watermark_ = TotalBytesCopied();
  // Visit units in shuffled order for shuffled streams (chunk-level
  // shuffle); the reservoir adds sample-level randomness (§3.5).
  std::vector<size_t> visit(units_.size());
  for (size_t i = 0; i < visit.size(); ++i) visit[i] = i;
  if (options_.shuffle) {
    Rng rng(options_.seed ^ 0x5eed);
    for (size_t i = visit.size(); i > 1; --i) {
      std::swap(visit[i - 1], visit[rng.Uniform(i)]);
    }
    // Re-number sequence keys to the visit order so sequential consumption
    // logic can be reused for bookkeeping.
    for (size_t k = 0; k < visit.size(); ++k) units_[visit[k]].seq = k;
  }
  {
    MutexLock lock(mu_);
    start_allowance_ = std::max<size_t>(1, options_.prefetch_units);
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (size_t pos = 0; pos < visit.size(); ++pos) {
    const Unit* unit = &units_[visit[pos]];
    pool_->Submit([this, unit, pos] {
      {
        MutexLock lock(mu_);
        while (!(abort_ || !first_error_.ok() || pos < start_allowance_)) {
          gate_cv_.Wait(mu_);
        }
        if (abort_ || !first_error_.ok()) {
          ++units_done_;
          ready_cv_.NotifyAll();
          return;
        }
      }
      ProcessUnit(*unit);
    });
  }
}

namespace {

// Runs `fn`, timing it into `*acc`, `hist` and (when tracing) a span.
template <typename Fn>
auto Timed(obs::Histogram* hist, int64_t* acc, const char* span_name,
           Fn&& fn) {
  obs::ScopedSpan span(span_name, "loader");
  int64_t t0 = NowMicros();
  auto r = fn();
  int64_t dt = NowMicros() - t0;
  *acc += dt;
  hist->Observe(static_cast<double>(dt));
  return r;
}

// Decoded bytes of a sample of this shape.
uint64_t RawBytes(const tsf::TensorShape& shape, tsf::DType dtype) {
  return shape.IsEmptySample() ? 0
                               : shape.NumElements() * tsf::DTypeSize(dtype);
}

}  // namespace

Result<Slice> Dataloader::ReadChunkBytes(const tsf::Tensor& t,
                                         const std::string& key,
                                         const ByteRange* range,
                                         UnitTimes* times) {
  int64_t us = 0;
  auto bytes = Timed(fetch_hist_, &us, "loader.fetch", [&] {
    return range == nullptr
               ? t.store()->Get(key)
               : t.store()->GetRange(key, range->offset, range->length);
  });
  times->fetch_us += us;
  if (bytes.ok()) cost_.ObserveRead(bytes->size(), us);
  return bytes;
}

Result<std::shared_ptr<tsf::Chunk>> Dataloader::FetchWholeChunk(
    const tsf::Tensor& t, uint64_t chunk_id, UnitTimes* times) {
  DL_ASSIGN_OR_RETURN(Slice bytes,
                      ReadChunkBytes(t, t.ChunkKey(chunk_id), nullptr, times));
  DL_ASSIGN_OR_RETURN(
      tsf::Chunk chunk,
      Timed(decode_hist_, &times->decode_us, "loader.decode", [&] {
        return tsf::Chunk::Parse(std::move(bytes), /*verify_checksum=*/false);
      }));
  return std::make_shared<tsf::Chunk>(std::move(chunk));
}

std::optional<uint64_t> Dataloader::PlanRangedRead(
    const tsf::Tensor& t, const tsf::ChunkEncoder::Location& loc,
    const std::vector<uint64_t>& wanted,
    const std::optional<ReadCost>& cost) const {
  // Uncompressed samples: the shape index gives each one's stored size,
  // and with it the header's length and every sample's byte range.
  const tsf::DType dtype = t.meta().dtype;
  uint64_t header = VarintLength(loc.chunk_samples);
  uint64_t payload = 0;
  std::vector<ByteRange> ranges;
  ranges.reserve(wanted.size());
  auto next = wanted.begin();
  for (uint64_t i = 0; i < loc.chunk_samples; ++i) {
    auto shape = t.shape_encoder().At(loc.chunk_first + i);
    if (!shape.ok()) return std::nullopt;
    uint64_t bytes = RawBytes(*shape, dtype);
    header += tsf::ChunkHeader::EntryLen(bytes, *shape);
    if (next != wanted.end() && *next == i) {
      ranges.push_back({payload, bytes});
      ++next;
    }
    payload += bytes;
  }
  const uint64_t header_request = tsf::ChunkHeader::kFixedPrefix + header;
  if (!cost) {
    // No fit yet: when the wanted samples span enough bytes, read the
    // header and one run over that span. The small and the large read fit
    // the cost, at worst one request more than a whole Get.
    uint64_t span = ranges.empty() ? 0
                                   : ranges.back().offset +
                                         ranges.back().length -
                                         ranges.front().offset;
    if (span < ReadCostModel::kMinSpread + header_request) return std::nullopt;
    return header_request;
  }
  double ranged = cost->Of(1, header_request);
  for (const ByteRange& run : MergeRuns(ranges, *cost)) {
    ranged += cost->Of(1, run.length);
  }
  if (ranged >= cost->Of(1, header_request + payload + 4)) return std::nullopt;
  return header_request;
}

Result<std::shared_ptr<tsf::Chunk>> Dataloader::FetchPrimaryChunk(
    const tsf::Tensor& t, const tsf::ChunkEncoder::Location& loc,
    const std::vector<uint64_t>& wanted, UnitTimes* times) {
  const tsf::TensorMeta& meta = t.meta();
  // The ranged path needs uncompressed samples in an uncompressed chunk
  // payload, and a unit that skips samples.
  std::optional<ReadCost> cost = cost_.Cost();
  std::optional<uint64_t> header_request;
  if (meta.chunk_compression == compress::Compression::kNone &&
      meta.sample_compression == compress::Compression::kNone &&
      wanted.size() < loc.chunk_samples) {
    header_request = PlanRangedRead(t, loc, wanted, cost);
  }
  if (!header_request) return FetchWholeChunk(t, loc.chunk_id, times);

  const std::string key = t.ChunkKey(loc.chunk_id);
  ByteRange head{0, *header_request};
  DL_ASSIGN_OR_RETURN(Slice prefix, ReadChunkBytes(t, key, &head, times));
  DL_ASSIGN_OR_RETURN(uint32_t header_len,
                      tsf::ChunkHeader::PeekHeaderLen(prefix));
  if (prefix.size() - tsf::ChunkHeader::kFixedPrefix < header_len) {
    // The header is longer than the shape index predicted: read it whole.
    head.length = tsf::ChunkHeader::kFixedPrefix + uint64_t{header_len};
    DL_ASSIGN_OR_RETURN(prefix, ReadChunkBytes(t, key, &head, times));
  }
  DL_ASSIGN_OR_RETURN(
      tsf::ChunkHeader header,
      Timed(decode_hist_, &times->decode_us, "loader.decode",
            [&] { return tsf::ChunkHeader::Parse(prefix); }));
  if (header.num_samples() != loc.chunk_samples) {
    return Status::Corruption(
        "chunk " + key + ": header holds " +
        std::to_string(header.num_samples()) + " samples, the chunk encoder " +
        std::to_string(loc.chunk_samples));
  }
  std::vector<ByteRange> ranges;
  ranges.reserve(wanted.size());
  for (uint64_t i : wanted) {
    ByteRange r;
    header.SampleRange(i, &r.offset, &r.length);
    ranges.push_back(r);
  }
  // Without a fit, one run spans the wanted samples (an unbounded
  // latency merges every gap).
  const ReadCost span_all{std::numeric_limits<double>::infinity(), 0};
  std::vector<tsf::ChunkRun> runs;
  for (const ByteRange& run : MergeRuns(ranges, cost.value_or(span_all))) {
    DL_ASSIGN_OR_RETURN(Slice bytes, ReadChunkBytes(t, key, &run, times));
    if (bytes.size() != run.length) {
      return Status::Corruption("chunk " + key + ": range read came back short");
    }
    runs.push_back({run.offset, std::move(bytes)});
  }
  DL_ASSIGN_OR_RETURN(tsf::Chunk chunk, tsf::Chunk::FromRuns(
                                            std::move(header), std::move(runs)));
  return std::make_shared<tsf::Chunk>(std::move(chunk));
}

Result<std::shared_ptr<tsf::Chunk>> Dataloader::AcquireShared(
    const ChunkRef& ref, UnitTimes* times) {
  {
    MutexLock lock(mu_);
    // The entry outlives the wait: this unit is one of its planned users.
    SharedChunk& entry = shared_[ref];
    ++entry.holders;
    entry.last_use = ++shared_clock_;
    while (entry.fetching) shared_cv_.Wait(mu_);
    if (entry.chunk != nullptr) return entry.chunk;
    if (!entry.error.ok()) return entry.error;
    entry.fetching = true;
  }
  auto fetched = FetchWholeChunk(*tensors_[ref.first].second, ref.second,
                                 times);
  {
    MutexLock lock(mu_);
    SharedChunk& entry = shared_[ref];
    entry.fetching = false;
    if (fetched.ok()) {
      entry.chunk = *fetched;
      ++shared_resident_;
      stats_.peak_shared_chunks =
          std::max<uint64_t>(stats_.peak_shared_chunks, shared_resident_);
    } else {
      entry.error = fetched.status();
    }
  }
  shared_cv_.NotifyAll();
  return fetched;
}

void Dataloader::ReleaseShared(const Unit& unit,
                               const std::vector<ChunkRef>& held) {
  MutexLock lock(mu_);
  // `held` is a subset of unit.shared, so its entries are still present.
  for (const ChunkRef& ref : held) --shared_[ref].holders;
  for (const ChunkRef& ref : unit.shared) {
    auto it = shared_.find(ref);
    if (it == shared_.end() || --it->second.users > 0) continue;
    if (it->second.chunk != nullptr) --shared_resident_;
    shared_.erase(it);
  }
  // A chunk no in-flight unit holds stays for its later readers, but each
  // tensor keeps at most prefetch_units such chunks: past that the least
  // recently used is dropped, and a later reader fetches it again.
  const size_t idle_cap = std::max<size_t>(1, options_.prefetch_units);
  std::vector<SharedChunk*> idle;
  for (size_t k = 0; k < tensors_.size(); ++k) {
    idle.clear();
    for (auto it = shared_.lower_bound({k, 0});
         it != shared_.end() && it->first.first == k; ++it) {
      if (it->second.chunk != nullptr && it->second.holders == 0) {
        idle.push_back(&it->second);
      }
    }
    if (idle.size() <= idle_cap) continue;
    std::sort(idle.begin(), idle.end(),
              [](const SharedChunk* a, const SharedChunk* b) {
                return a->last_use < b->last_use;
              });
    for (size_t i = 0; i + idle_cap < idle.size(); ++i) {
      idle[i]->chunk.reset();
      --shared_resident_;
    }
  }
}

void Dataloader::ProcessUnit(const Unit& unit) {
  // Worker threads adopt the job's trace context for the unit's duration:
  // every span below (loader.fetch → storage.op) inherits its trace id.
  obs::ContextScope context_scope(options_.context);
  Status status;
  size_t cap = std::max<size_t>(1, options_.shuffle_buffer_rows);
  // Per-stage timing, accumulated locally and merged into stats_ once at
  // unit end (workers never contend on the mutex per sample). Each op also
  // lands in a registry histogram and, when tracing is on, a span.
  UnitTimes times;
  // Publishes one decoded row immediately (shuffle: into the reservoir,
  // honoring its capacity; sequential: into the unit's progress entry), so
  // consumption overlaps decoding from the first sample.
  auto publish = [&](Row row) {
    if (options_.shuffle) {
      MutexLock lock(mu_);
      while (!(abort_ || reservoir_.size() < cap)) {
        reservoir_cv_.Wait(mu_);
      }
      if (abort_) return;
      reservoir_.push_back(std::move(row));
    } else {
      MutexLock lock(mu_);
      completed_[unit.seq].rows.push_back(std::move(row));
    }
    queued_gauge_->Add(1);
    ready_cv_.NotifyAll();
  };
  // The chunks this unit has in hand, indexed like tensors_: each is
  // fetched (or taken from shared_) once however many rows it serves.
  const size_t width = tensors_.size();
  std::vector<std::map<uint64_t, std::shared_ptr<tsf::Chunk>>> cache(width);
  std::vector<ChunkRef> held;  // the shared chunks this unit acquired
  for (size_t r = 0; r < unit.rows.size(); ++r) {
    const uint64_t row_idx = unit.rows[r];
    Row row;
    for (size_t k = 0; k < width; ++k) {
      const std::string& name = tensors_[k].first;
      tsf::Tensor* t = tensors_[k].second;
      const Slot& slot = unit.slots[r * width + k];
      if (slot.source == Slot::kEmpty) {
        row[name] = tsf::Sample::EmptyOf(t->meta().dtype);
        continue;
      }
      if (slot.source == Slot::kRead) {
        // The tensor fetches and decodes in one call; the whole cost is
        // attributed to fetch (see DataloaderStats doc).
        auto s = Timed(fetch_hist_, &times.fetch_us, "loader.fetch",
                       [&] { return t->Read(row_idx); });
        if (!s.ok()) {
          status = s.status();
          break;
        }
        row[name] = std::move(s).value();
        continue;
      }
      auto& tensor_cache = cache[k];
      auto it = tensor_cache.find(slot.chunk_id);
      if (it == tensor_cache.end()) {
        if (k != primary_) held.push_back({k, slot.chunk_id});
        auto chunk = k == primary_ ? FetchPrimaryChunk(*t, *unit.primary_chunk,
                                                       unit.wanted, &times)
                                   : AcquireShared(held.back(), &times);
        if (!chunk.ok()) {
          status = chunk.status();
          break;
        }
        it = tensor_cache.emplace(slot.chunk_id, std::move(chunk).value())
                 .first;
      }
      auto s = Timed(decode_hist_, &times.decode_us, "loader.decode",
                     [&] { return it->second->ReadSample(slot.local_index); });
      if (!s.ok()) {
        status = s.status();
        break;
      }
      row[name] = std::move(s).value();
    }
    if (!status.ok()) break;
    if (options_.transform) {
      status = Timed(transform_hist_, &times.transform_us, "loader.transform",
                     [&] { return options_.transform(row); });
      if (!status.ok()) break;
    }
    publish(std::move(row));
  }
  ReleaseShared(unit, held);

  {
    MutexLock lock(mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    if (!options_.shuffle) completed_[unit.seq].done = true;
    if (options_.shuffle && status.ok()) ++units_published_;
    units_done_++;
    if (options_.shuffle) ++start_allowance_;
    stats_.fetch_micros += times.fetch_us;
    stats_.decode_micros += times.decode_us;
    stats_.transform_micros += times.transform_us;
  }
  if (options_.shuffle) gate_cv_.NotifyAll();
  ready_cv_.NotifyAll();
}

Result<bool> Dataloader::Next(Batch* out) {
  // The consumer adopts the job's context too: loader.next / loader.stall
  // spans join the same trace as the worker-side fetches.
  obs::ContextScope context_scope(options_.context);
  obs::ScopedSpan next_span("loader.next", "loader");
  out->columns.clear();
  out->size = 0;
  int64_t wait_start = NowMicros();
  bool stalled = false;

  MutexLock lock(mu_);
  while (pending_rows_.size() < options_.batch_size) {
    if (!first_error_.ok()) return first_error_;
    if (options_.shuffle) {
      if (!reservoir_.empty()) {
        // Random eviction from the reservoir.
        size_t pick = shuffle_rng_.Uniform(reservoir_.size());
        std::swap(reservoir_[pick], reservoir_.back());
        pending_rows_.push_back(std::move(reservoir_.back()));
        reservoir_.pop_back();
        reservoir_cv_.NotifyOne();
        continue;
      }
      if (units_done_ == units_.size()) break;  // drained
    } else {
      auto it = completed_.find(next_seq_);
      if (it != completed_.end()) {
        UnitProgress& p = it->second;
        bool progressed = p.taken < p.rows.size();
        while (p.taken < p.rows.size()) {
          pending_rows_.push_back(std::move(p.rows[p.taken++]));
        }
        if (p.done && p.taken == p.rows.size()) {
          completed_.erase(it);
          ++next_seq_;
          ++stats_.units;
          ++start_allowance_;
          gate_cv_.NotifyAll();
          continue;
        }
        if (progressed) continue;
      }
      if (next_seq_ >= units_.size()) break;  // drained
    }
    stalled = true;
    ready_cv_.Wait(mu_);
  }
  if (options_.shuffle) stats_.units = units_published_;
  if (stalled) {
    int64_t stall = NowMicros() - wait_start;
    stats_.stall_micros += stall;
    stall_hist_->Observe(static_cast<double>(stall));
    // The consumer-starved interval the paper's utilization plots hinge
    // on: visible as a gap-filling span on the consumer thread's track.
    auto& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      recorder.Record("loader.stall", "loader", wait_start, stall);
    }
  }

  // Fold the copy-accounting delta since the last Next() into the epoch
  // stats (covers worker-side copies too: the global counter is atomic).
  uint64_t copied_now = TotalBytesCopied();
  if (copied_now > copied_watermark_) {
    uint64_t delta = copied_now - copied_watermark_;
    copied_watermark_ = copied_now;
    stats_.bytes_copied += delta;
    bytes_copied_counter_->Add(delta);
  }

  if (pending_rows_.empty()) return false;  // end of stream
  uint64_t take = std::min<uint64_t>(options_.batch_size,
                                     pending_rows_.size());
  if (take < options_.batch_size && options_.drop_last) {
    pending_rows_.clear();
    return false;
  }
  for (uint64_t i = 0; i < take; ++i) {
    for (auto& [name, sample] : pending_rows_[i]) {
      out->columns[name].push_back(std::move(sample));
    }
  }
  pending_rows_.erase(pending_rows_.begin(), pending_rows_.begin() + take);
  out->size = take;
  stats_.rows_delivered += take;
  stats_.batches_delivered += 1;
  rows_counter_->Add(take);
  queued_gauge_->Sub(static_cast<double>(take));
  return true;
}

}  // namespace dl::stream
