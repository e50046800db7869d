#include "tsf/tensor.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/clock.h"
#include "util/envelope.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dl::tsf {

namespace {

std::string TensorDir(const std::string& name) {
  return PathJoin("tensors", name);
}

/// Fresh chunk-id base per writing session: the high bits are random (so
/// ids never collide across branches/sessions), the low bits count up (so
/// the chunk encoder's delta coding stays ~1 byte per chunk, §3.4).
uint64_t FreshChunkIdBase() {
  static std::atomic<uint64_t> counter{0};
  uint64_t entropy = static_cast<uint64_t>(NowMicros()) ^
                     (counter.fetch_add(1) << 48);
  return Mix64(entropy) & ~0xFFFFFFull;  // low 24 bits free for the counter
}

}  // namespace

Tensor::Tensor(storage::StoragePtr store, TensorMeta meta)
    : store_(std::move(store)), meta_(std::move(meta)) {
  next_chunk_id_ = FreshChunkIdBase();
  open_chunk_ = std::make_unique<ChunkBuilder>(meta_);
}

std::string Tensor::ChunkKey(uint64_t chunk_id) const {
  return PathJoin(TensorDir(meta_.name), "chunks", Hex64(chunk_id));
}

std::string Tensor::MetaKey() const {
  return PathJoin(TensorDir(meta_.name), "tensor_meta.json");
}

Result<std::unique_ptr<Tensor>> Tensor::Create(storage::StoragePtr store,
                                               const std::string& name,
                                               const TensorOptions& options) {
  DL_ASSIGN_OR_RETURN(TensorMeta meta, TensorMeta::FromOptions(name, options));
  std::string meta_key = PathJoin(TensorDir(name), "tensor_meta.json");
  DL_ASSIGN_OR_RETURN(bool exists, store->Exists(meta_key));
  if (exists) {
    return Status::AlreadyExists("tensor '" + name + "' already exists");
  }
  auto tensor = std::unique_ptr<Tensor>(new Tensor(store, std::move(meta)));
  DL_RETURN_IF_ERROR(tensor->Flush());  // persist meta + empty encoders
  return tensor;
}

Result<std::unique_ptr<Tensor>> Tensor::Open(storage::StoragePtr store,
                                             const std::string& name) {
  std::string dir = TensorDir(name);
  // Enveloped since the crash-consistency layer (DESIGN.md §9); legacy raw
  // JSON passes through GetVerified unchanged.
  DL_ASSIGN_OR_RETURN(
      Slice meta_bytes,
      storage::GetVerified(*store, PathJoin(dir, "tensor_meta.json")));
  DL_ASSIGN_OR_RETURN(Json meta_json,
                      Json::Parse(meta_bytes.ToStringView()));
  DL_ASSIGN_OR_RETURN(TensorMeta meta, TensorMeta::FromJson(meta_json));
  auto tensor = std::unique_ptr<Tensor>(new Tensor(store, std::move(meta)));

  DL_ASSIGN_OR_RETURN(Slice enc_bytes,
                      store->Get(PathJoin(dir, "chunk_encoder.bin")));
  DL_ASSIGN_OR_RETURN(tensor->chunk_encoder_,
                      ChunkEncoder::Deserialize(ByteView(enc_bytes)));
  DL_ASSIGN_OR_RETURN(Slice shp_bytes,
                      store->Get(PathJoin(dir, "shape_encoder.bin")));
  DL_ASSIGN_OR_RETURN(tensor->shape_encoder_,
                      ShapeEncoder::Deserialize(ByteView(shp_bytes)));
  DL_ASSIGN_OR_RETURN(Slice tile_bytes,
                      store->Get(PathJoin(dir, "tile_encoder.bin")));
  DL_ASSIGN_OR_RETURN(tensor->tile_encoder_,
                      TileEncoder::Deserialize(ByteView(tile_bytes)));
  return tensor;
}

uint64_t Tensor::NumSamples() const {
  return chunk_encoder_.num_samples() +
         (open_chunk_ ? open_chunk_->num_samples() : 0);
}

Status Tensor::Append(const Sample& sample) {
  DL_RETURN_IF_ERROR(meta_.ValidateSample(sample));
  return AppendInternal(sample, ByteView());
}

Status Tensor::AppendPrecompressed(ByteView frame, const TensorShape& shape) {
  if (meta_.sample_compression == compress::Compression::kNone) {
    return Status::FailedPrecondition(
        "tensor '" + meta_.name +
        "' has no sample compression; precompressed append not applicable");
  }
  Sample placeholder(meta_.dtype, shape, {});  // shape carrier only
  return AppendInternal(placeholder, frame);
}

Status Tensor::AppendInternal(const Sample& sample, ByteView precompressed) {
  uint64_t raw_bytes = sample.shape.IsEmptySample()
                           ? 0
                           : sample.NumElements() * DTypeSize(meta_.dtype);
  bool oversize = raw_bytes > meta_.max_chunk_bytes &&
                  !meta_.htype.exempt_from_tiling() &&
                  precompressed.empty();
  if (oversize) {
    return AppendTiled(sample);
  }

  // Seal the open chunk first when this sample would push it past the
  // upper bound (the lower/upper-bound packing rule of §3.4).
  uint64_t incoming = precompressed.empty() ? raw_bytes : precompressed.size();
  if (!open_chunk_->empty() &&
      open_chunk_->payload_bytes() + incoming > meta_.max_chunk_bytes) {
    DL_RETURN_IF_ERROR(SealOpenChunk());
  }
  if (precompressed.empty()) {
    DL_RETURN_IF_ERROR(open_chunk_->Append(sample));
  } else {
    DL_RETURN_IF_ERROR(
        open_chunk_->AppendPrecompressed(precompressed, sample.shape));
  }
  shape_encoder_.Append(sample.shape);
  return Status::OK();
}

Result<TileLayout> Tensor::WriteTiles(const Sample& sample) {
  TileLayout layout = ComputeTileLayout(sample.shape, DTypeSize(meta_.dtype),
                                        meta_.max_chunk_bytes);
  uint64_t tiles = layout.num_tiles();
  layout.chunk_ids.reserve(tiles);
  // Row-major walk over the grid.
  std::vector<uint64_t> coord(layout.grid.size(), 0);
  for (uint64_t t = 0; t < tiles; ++t) {
    ByteBuffer tile_bytes = ExtractTile(sample, layout, coord);
    TensorShape tile_shape = layout.TileShapeAt(coord);
    ChunkBuilder builder(meta_);
    DL_RETURN_IF_ERROR(
        builder.Append(Sample(meta_.dtype, tile_shape, std::move(tile_bytes))));
    DL_ASSIGN_OR_RETURN(ByteBuffer obj, builder.Finish());
    uint64_t id = NextChunkId();
    DL_RETURN_IF_ERROR(store_->Put(ChunkKey(id), ByteView(obj)));
    layout.chunk_ids.push_back(id);
    // Advance the grid odometer.
    for (size_t d = layout.grid.size(); d-- > 0;) {
      if (++coord[d] < layout.grid[d]) break;
      coord[d] = 0;
    }
  }
  return layout;
}

Status Tensor::AppendTiled(const Sample& sample) {
  uint64_t index = NumSamples();
  DL_ASSIGN_OR_RETURN(TileLayout layout, WriteTiles(sample));
  // The sample still occupies one slot in the chunk stream: an empty
  // placeholder keeps the chunk encoder a bijection over sample indices.
  DL_RETURN_IF_ERROR(open_chunk_->Append(Sample::EmptyOf(meta_.dtype)));
  shape_encoder_.Append(sample.shape);
  tile_encoder_.Set(index, std::move(layout));
  return Status::OK();
}

Status Tensor::SealOpenChunk() {
  if (open_chunk_->empty()) return Status::OK();
  uint64_t count = open_chunk_->num_samples();
  DL_ASSIGN_OR_RETURN(ByteBuffer obj, open_chunk_->Finish());
  uint64_t id = NextChunkId();
  DL_RETURN_IF_ERROR(store_->Put(ChunkKey(id), ByteView(obj)));
  chunk_encoder_.AddChunk(id, count);
  return Status::OK();
}

Status Tensor::Flush() {
  DL_RETURN_IF_ERROR(SealOpenChunk());
  meta_.length = NumSamples();
  DL_RETURN_IF_ERROR(PersistEncoders());
  return Status::OK();
}

Status Tensor::PersistEncoders() {
  std::string dir = TensorDir(meta_.name);
  std::string meta_text = meta_.ToJson().Dump(2);
  // The meta is the tensor's root manifest: checksummed so a torn write
  // surfaces as Corruption instead of parsing as wrong JSON, durable so a
  // crash after Flush() cannot lose it.
  ByteBuffer framed = EnvelopeWrap(ByteView(meta_text));
  DL_RETURN_IF_ERROR(store_->PutDurable(PathJoin(dir, "tensor_meta.json"),
                                        ByteView(framed)));
  DL_RETURN_IF_ERROR(store_->Put(PathJoin(dir, "chunk_encoder.bin"),
                                 ByteView(chunk_encoder_.Serialize())));
  DL_RETURN_IF_ERROR(store_->Put(PathJoin(dir, "shape_encoder.bin"),
                                 ByteView(shape_encoder_.Serialize())));
  DL_RETURN_IF_ERROR(store_->Put(PathJoin(dir, "tile_encoder.bin"),
                                 ByteView(tile_encoder_.Serialize())));
  return Status::OK();
}

Result<std::shared_ptr<Chunk>> Tensor::FetchChunk(uint64_t chunk_id) {
  {
    MutexLock lock(cache_mu_);
    if (cached_chunk_ && cached_chunk_id_ == chunk_id) return cached_chunk_;
  }
  DL_ASSIGN_OR_RETURN(Slice bytes, store_->Get(ChunkKey(chunk_id)));
  auto parsed = Chunk::Parse(std::move(bytes));
  if (!parsed.ok() && parsed.status().IsCorruption()) {
    // The CRC failure may be a cache layer's copy, not the stored object:
    // drop every cached copy and re-read once before giving up.
    store_->Invalidate(ChunkKey(chunk_id));
    DL_ASSIGN_OR_RETURN(Slice retry_bytes,
                        store_->Get(ChunkKey(chunk_id)));
    parsed = Chunk::Parse(std::move(retry_bytes));
  }
  DL_ASSIGN_OR_RETURN(Chunk chunk, std::move(parsed));
  auto ptr = std::make_shared<Chunk>(std::move(chunk));
  {
    MutexLock lock(cache_mu_);
    cached_chunk_id_ = chunk_id;
    cached_chunk_ = ptr;
  }
  return ptr;
}

Result<TensorShape> Tensor::ShapeAt(uint64_t index) const {
  return shape_encoder_.At(index);
}

Result<Sample> Tensor::Read(uint64_t index) {
  if (index >= NumSamples()) {
    return Status::OutOfRange("tensor '" + meta_.name + "': index " +
                              std::to_string(index) + " beyond length " +
                              std::to_string(NumSamples()));
  }
  if (const TileLayout* layout = tile_encoder_.Get(index)) {
    return AssembleTiled(index, *layout);
  }
  uint64_t flushed = chunk_encoder_.num_samples();
  if (index >= flushed) {
    return open_chunk_->ReadBuffered(index - flushed);
  }
  DL_ASSIGN_OR_RETURN(ChunkEncoder::Location loc, chunk_encoder_.Find(index));
  DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk, FetchChunk(loc.chunk_id));
  return chunk->ReadSample(loc.local_index);
}

Result<Sample> Tensor::AssembleTiled(uint64_t index,
                                     const TileLayout& layout) {
  size_t dtype_size = DTypeSize(meta_.dtype);
  // Tiles are stitched into one staging allocation, then sealed into the
  // result's immutable Slice — the only full-sample copy on this path.
  ByteBuffer staging(layout.sample_shape.NumElements() * dtype_size);
  std::vector<uint64_t> coord(layout.grid.size(), 0);
  for (uint64_t t = 0; t < layout.num_tiles(); ++t) {
    DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk,
                        FetchChunk(layout.chunk_ids[t]));
    DL_ASSIGN_OR_RETURN(Sample tile, chunk->ReadSample(0));
    PlaceTile(staging, layout.sample_shape, dtype_size, layout, coord,
              ByteView(tile.data));
    for (size_t d = layout.grid.size(); d-- > 0;) {
      if (++coord[d] < layout.grid[d]) break;
      coord[d] = 0;
    }
  }
  (void)index;
  return Sample(meta_.dtype, layout.sample_shape, Slice(std::move(staging)));
}

Result<Sample> Tensor::ReadRegion(uint64_t index,
                                  const std::vector<uint64_t>& starts,
                                  const std::vector<uint64_t>& sizes) {
  DL_ASSIGN_OR_RETURN(TensorShape full, ShapeAt(index));
  if (starts.size() != full.ndim() || sizes.size() != full.ndim()) {
    return Status::InvalidArgument("region rank mismatch");
  }
  for (size_t d = 0; d < full.ndim(); ++d) {
    if (starts[d] + sizes[d] > full[d]) {
      return Status::OutOfRange("region exceeds sample bounds in dim " +
                                std::to_string(d));
    }
  }
  size_t dtype_size = DTypeSize(meta_.dtype);
  TensorShape region_shape{std::vector<uint64_t>(sizes)};
  ByteBuffer staging(region_shape.NumElements() * dtype_size);

  const TileLayout* layout = tile_encoder_.Get(index);
  Sample source;
  if (layout == nullptr) {
    // Untiled: fetch the whole sample, then crop.
    DL_ASSIGN_OR_RETURN(source, Read(index));
    CopyRegion(source, starts, region_shape, staging.data());
    return Sample(meta_.dtype, region_shape, Slice(std::move(staging)));
  }
  // Tiled: fetch only overlapping tiles, copy the intersections.
  std::vector<uint64_t> coord(layout->grid.size(), 0);
  for (uint64_t t = 0; t < layout->num_tiles(); ++t) {
    // Tile bounds.
    bool overlaps = true;
    for (size_t d = 0; d < full.ndim(); ++d) {
      uint64_t tstart = coord[d] * layout->tile_dims[d];
      uint64_t tend = tstart + layout->TileShapeAt(coord)[d];
      if (tend <= starts[d] || tstart >= starts[d] + sizes[d]) {
        overlaps = false;
        break;
      }
    }
    if (overlaps) {
      DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk,
                          FetchChunk(layout->chunk_ids[t]));
      DL_ASSIGN_OR_RETURN(Sample tile, chunk->ReadSample(0));
      // Copy intersection tile∩region element-wise (regions are small).
      CopyTileRegion(tile, *layout, coord, starts, sizes, region_shape,
                     staging.data());
    }
    for (size_t d = layout->grid.size(); d-- > 0;) {
      if (++coord[d] < layout->grid[d]) break;
      coord[d] = 0;
    }
  }
  return Sample(meta_.dtype, region_shape, Slice(std::move(staging)));
}

void Tensor::CopyRegion(const Sample& source,
                        const std::vector<uint64_t>& starts,
                        const TensorShape& out_shape, uint8_t* out_data) {
  // Generic strided copy source[starts + i] -> out[i].
  size_t nd = source.shape.ndim();
  size_t es = DTypeSize(source.dtype);
  if (nd == 0) {
    std::memcpy(out_data, source.data.data(), source.data.size());
    return;
  }
  std::vector<uint64_t> sstr(nd, 1), ostr(nd, 1);
  for (size_t d = nd; d-- > 1;) {
    sstr[d - 1] = sstr[d] * source.shape[d];
    ostr[d - 1] = ostr[d] * out_shape[d];
  }
  std::vector<uint64_t> idx(nd, 0);
  uint64_t run = out_shape[nd - 1];
  while (true) {
    uint64_t soff = 0, ooff = 0;
    for (size_t d = 0; d < nd; ++d) {
      soff += (starts[d] + idx[d]) * sstr[d];
      ooff += idx[d] * ostr[d];
    }
    std::memcpy(out_data + ooff * es, source.data.data() + soff * es,
                run * es);
    if (nd == 1) break;
    ptrdiff_t d = static_cast<ptrdiff_t>(nd) - 2;
    while (d >= 0) {
      if (++idx[d] < out_shape[d]) break;
      idx[d] = 0;
      --d;
    }
    if (d < 0) break;
  }
}

void Tensor::CopyTileRegion(const Sample& tile, const TileLayout& layout,
                            const std::vector<uint64_t>& coord,
                            const std::vector<uint64_t>& starts,
                            const std::vector<uint64_t>& sizes,
                            const TensorShape& out_shape, uint8_t* out_data) {
  size_t nd = layout.sample_shape.ndim();
  size_t es = DTypeSize(tile.dtype);
  // Intersection in global coordinates.
  std::vector<uint64_t> tile_start(nd), isect_start(nd), isect_size(nd);
  for (size_t d = 0; d < nd; ++d) {
    tile_start[d] = coord[d] * layout.tile_dims[d];
    uint64_t lo = std::max(tile_start[d], starts[d]);
    uint64_t hi = std::min(tile_start[d] + tile.shape[d],
                           starts[d] + sizes[d]);
    isect_start[d] = lo;
    isect_size[d] = hi - lo;
  }
  std::vector<uint64_t> tstr(nd, 1), ostr(nd, 1);
  for (size_t d = nd; d-- > 1;) {
    tstr[d - 1] = tstr[d] * tile.shape[d];
    ostr[d - 1] = ostr[d] * out_shape[d];
  }
  std::vector<uint64_t> idx(nd, 0);
  uint64_t run = isect_size[nd - 1];
  while (true) {
    uint64_t toff = 0, ooff = 0;
    for (size_t d = 0; d < nd; ++d) {
      toff += (isect_start[d] - tile_start[d] + idx[d]) * tstr[d];
      ooff += (isect_start[d] - starts[d] + idx[d]) * ostr[d];
    }
    std::memcpy(out_data + ooff * es, tile.data.data() + toff * es,
                run * es);
    if (nd == 1) break;
    ptrdiff_t d = static_cast<ptrdiff_t>(nd) - 2;
    while (d >= 0) {
      if (++idx[d] < isect_size[d]) break;
      idx[d] = 0;
      --d;
    }
    if (d < 0) break;
  }
}

Status Tensor::Update(uint64_t index, const Sample& sample) {
  DL_RETURN_IF_ERROR(meta_.ValidateSample(sample));
  uint64_t n = NumSamples();
  if (index >= n) {
    // Sparse out-of-bounds assignment (§3.5): pad then append.
    for (uint64_t i = n; i < index; ++i) {
      DL_RETURN_IF_ERROR(AppendInternal(Sample::EmptyOf(meta_.dtype),
                                        ByteView()));
    }
    return AppendInternal(sample, ByteView());
  }
  // Make the target chunk addressable: updates operate on flushed chunks.
  if (index >= chunk_encoder_.num_samples()) {
    DL_RETURN_IF_ERROR(Flush());
  }
  uint64_t raw_bytes =
      sample.shape.IsEmptySample() ? 0 : sample.nbytes();

  // Clear an existing tile entry; rewrite tiled if still oversized.
  if (tile_encoder_.IsTiled(index)) tile_encoder_.Remove(index);
  if (raw_bytes > meta_.max_chunk_bytes &&
      !meta_.htype.exempt_from_tiling()) {
    DL_ASSIGN_OR_RETURN(TileLayout layout, WriteTiles(sample));
    tile_encoder_.Set(index, std::move(layout));
    // Replace the stored slot with an empty placeholder.
    DL_RETURN_IF_ERROR(RewriteSampleInChunk(index, Sample::EmptyOf(meta_.dtype)));
    DL_RETURN_IF_ERROR(shape_encoder_.Set(index, sample.shape));
    return PersistEncoders();
  }

  DL_RETURN_IF_ERROR(RewriteSampleInChunk(index, sample));
  DL_RETURN_IF_ERROR(shape_encoder_.Set(index, sample.shape));
  return PersistEncoders();
}

Status Tensor::UpdateContiguous(uint64_t start,
                                const std::vector<Sample>& samples) {
  if (samples.empty()) return Status::OK();
  uint64_t n = NumSamples();
  if (start >= n || samples.size() > n - start) {
    return Status::OutOfRange("UpdateContiguous range [" +
                              std::to_string(start) + ", " +
                              std::to_string(start + samples.size()) +
                              ") exceeds tensor length " + std::to_string(n));
  }
  for (const auto& s : samples) {
    DL_RETURN_IF_ERROR(meta_.ValidateSample(s));
  }
  // Updates operate on flushed chunks.
  if (start + samples.size() > chunk_encoder_.num_samples()) {
    DL_RETURN_IF_ERROR(Flush());
  }

  uint64_t i = 0;
  while (i < samples.size()) {
    uint64_t index = start + i;
    uint64_t raw = samples[i].shape.IsEmptySample() ? 0 : samples[i].nbytes();
    if (tile_encoder_.IsTiled(index) || raw > meta_.max_chunk_bytes) {
      DL_RETURN_IF_ERROR(Update(index, samples[i]));
      ++i;
      continue;
    }
    DL_ASSIGN_OR_RETURN(ChunkEncoder::Location loc, chunk_encoder_.Find(index));
    // Batch every remaining in-range sample that lands in this chunk and
    // stays on the dense path.
    uint64_t take = std::min<uint64_t>(samples.size() - i,
                                       loc.chunk_samples - loc.local_index);
    uint64_t dense = 0;
    while (dense < take) {
      const Sample& s = samples[i + dense];
      uint64_t rb = s.shape.IsEmptySample() ? 0 : s.nbytes();
      if (tile_encoder_.IsTiled(index + dense) || rb > meta_.max_chunk_bytes) {
        break;
      }
      ++dense;
    }
    take = dense;  // >= 1: samples[i] itself passed the checks above
    DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk, FetchChunk(loc.chunk_id));
    ChunkBuilder builder(meta_);
    for (uint64_t j = 0; j < loc.chunk_samples; ++j) {
      if (j >= loc.local_index && j < loc.local_index + take) {
        DL_RETURN_IF_ERROR(builder.Append(samples[i + (j - loc.local_index)]));
      } else {
        DL_ASSIGN_OR_RETURN(Sample s, chunk->ReadSample(j));
        DL_RETURN_IF_ERROR(builder.Append(s));
      }
    }
    DL_ASSIGN_OR_RETURN(ByteBuffer obj, builder.Finish());
    uint64_t new_id = NextChunkId();
    DL_RETURN_IF_ERROR(store_->Put(ChunkKey(new_id), ByteView(obj)));
    DL_RETURN_IF_ERROR(
        chunk_encoder_.ReplaceChunkId(loc.chunk_ordinal, new_id));
    {
      MutexLock lock(cache_mu_);
      cached_chunk_.reset();  // invalidate
    }
    for (uint64_t j = 0; j < take; ++j) {
      DL_RETURN_IF_ERROR(shape_encoder_.Set(index + j, samples[i + j].shape));
    }
    i += take;
  }
  return PersistEncoders();
}

Status Tensor::RewriteSampleInChunk(uint64_t index, const Sample& sample) {
  DL_ASSIGN_OR_RETURN(ChunkEncoder::Location loc, chunk_encoder_.Find(index));
  DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk, FetchChunk(loc.chunk_id));
  ChunkBuilder builder(meta_);
  for (uint64_t i = 0; i < loc.chunk_samples; ++i) {
    if (i == loc.local_index) {
      DL_RETURN_IF_ERROR(builder.Append(sample));
    } else {
      DL_ASSIGN_OR_RETURN(Sample s, chunk->ReadSample(i));
      DL_RETURN_IF_ERROR(builder.Append(s));
    }
  }
  DL_ASSIGN_OR_RETURN(ByteBuffer obj, builder.Finish());
  uint64_t new_id = NextChunkId();
  DL_RETURN_IF_ERROR(store_->Put(ChunkKey(new_id), ByteView(obj)));
  DL_RETURN_IF_ERROR(chunk_encoder_.ReplaceChunkId(loc.chunk_ordinal, new_id));
  {
    MutexLock lock(cache_mu_);
    cached_chunk_.reset();  // invalidate
  }
  return Status::OK();
}

Result<size_t> Tensor::Rechunk() {
  DL_RETURN_IF_ERROR(Flush());
  uint64_t n = chunk_encoder_.num_samples();
  ChunkEncoder new_encoder;
  ChunkBuilder builder(meta_);
  uint64_t pending = 0;
  auto seal = [&]() -> Status {
    if (pending == 0) return Status::OK();
    DL_ASSIGN_OR_RETURN(ByteBuffer obj, builder.Finish());
    uint64_t id = NextChunkId();
    DL_RETURN_IF_ERROR(store_->Put(ChunkKey(id), ByteView(obj)));
    new_encoder.AddChunk(id, pending);
    pending = 0;
    return Status::OK();
  };
  for (uint64_t i = 0; i < n; ++i) {
    if (tile_encoder_.IsTiled(i)) {
      // Keep tiled samples' placeholder in the stream.
      DL_RETURN_IF_ERROR(builder.Append(Sample::EmptyOf(meta_.dtype)));
      ++pending;
    } else {
      DL_ASSIGN_OR_RETURN(Sample s, Read(i));
      if (!builder.empty() &&
          builder.payload_bytes() + s.nbytes() > meta_.max_chunk_bytes) {
        DL_RETURN_IF_ERROR(seal());
      }
      DL_RETURN_IF_ERROR(builder.Append(s));
      ++pending;
    }
    if (builder.payload_bytes() >= meta_.max_chunk_bytes) {
      DL_RETURN_IF_ERROR(seal());
    }
  }
  DL_RETURN_IF_ERROR(seal());
  chunk_encoder_.ReplaceAll(
      std::vector<ChunkEntry>(new_encoder.entries()));
  {
    MutexLock lock(cache_mu_);
    cached_chunk_.reset();
  }
  DL_RETURN_IF_ERROR(PersistEncoders());
  return chunk_encoder_.num_chunks();
}

}  // namespace dl::tsf
