#include "probes.h"

#include "compress/codec.h"
#include "harness.h"
#include "tsf/chunk.h"
#include "util/coding.h"

namespace perfbench {

namespace {

struct SpanNames {
  std::string_view get, get_range, put, other;
};
constexpr SpanNames kUpperNames{"storage.upper.get", "storage.upper.get_range",
                                "storage.upper.put", "storage.upper.other"};
constexpr SpanNames kLowerNames{"storage.lower.get", "storage.lower.get_range",
                                "storage.lower.put", "storage.lower.other"};

bool IsChunkKey(std::string_view key) {
  return key.find("/chunks/") != std::string_view::npos;
}

}  // namespace

ProbeStore::ProbeStore(dl::storage::StoragePtr base, Layer layer)
    : base_(std::move(base)), layer_(layer) {}

void ProbeStore::ResetCounters() {
  counters_.gets = 0;
  counters_.get_ranges = 0;
  counters_.chunk_reads = 0;
  counters_.puts = 0;
  counters_.errors = 0;
  counters_.bytes_read = 0;
  counters_.bytes_written = 0;
}

void ProbeStore::ArmFaults(uint64_t fail_every, std::string flip_key) {
  fail_every_ = fail_every;
  flip_key_ = std::move(flip_key);
  armed_reads_ = 0;
  armed_.store(true);
}

dl::Result<dl::Slice> ProbeStore::Read(std::string_view key, bool ranged,
                                       uint64_t offset, uint64_t length) {
  const SpanNames& names = layer_ == Layer::kUpper ? kUpperNames : kLowerNames;
  ScopedSpan span(ranged ? names.get_range : names.get);
  bool armed = armed_.load();
  dl::Result<dl::Slice> result =
      armed && fail_every_ > 0 && (armed_reads_.fetch_add(1) + 1) % fail_every_ == 0
          ? dl::Result<dl::Slice>(dl::Status::IOError("injected read fault"))
      : ranged ? base_->GetRange(key, offset, length)
               : base_->Get(key);
  if (result.ok() && armed && !flip_key_.empty() &&
      key.find(flip_key_) != std::string_view::npos && result->size() > 5) {
    // The last payload byte before the chunk's 4-byte checksum.
    dl::ByteBuffer copy = dl::ByteView(result->data(), result->size()).ToBuffer();
    copy[copy.size() - 5] ^= 0x5a;
    result = dl::Slice(std::move(copy));
  }
  (ranged ? counters_.get_ranges : counters_.gets)++;
  if (IsChunkKey(key)) counters_.chunk_reads++;
  if (result.ok()) {
    counters_.bytes_read += result->size();
  } else {
    counters_.errors++;
  }
  return result;
}

dl::Status ProbeStore::Write(std::string_view key, dl::ByteView value,
                             bool durable) {
  const SpanNames& names = layer_ == Layer::kUpper ? kUpperNames : kLowerNames;
  ScopedSpan span(names.put);
  dl::Status st = durable ? base_->PutDurable(key, value) : base_->Put(key, value);
  counters_.puts++;
  if (st.ok()) {
    counters_.bytes_written += value.size();
  } else {
    counters_.errors++;
  }
  return st;
}

template <typename T>
T ProbeStore::CountErrors(T result) {
  if (!result.ok()) counters_.errors++;
  return result;
}

dl::Result<dl::Slice> ProbeStore::Get(std::string_view key) {
  return Read(key, false, 0, 0);
}

dl::Result<dl::Slice> ProbeStore::GetRange(std::string_view key,
                                           uint64_t offset, uint64_t length) {
  return Read(key, true, offset, length);
}

dl::Status ProbeStore::Put(std::string_view key, dl::ByteView value) {
  return Write(key, value, false);
}

dl::Status ProbeStore::PutDurable(std::string_view key, dl::ByteView value) {
  return Write(key, value, true);
}

dl::Status ProbeStore::Delete(std::string_view key) {
  const SpanNames& names = layer_ == Layer::kUpper ? kUpperNames : kLowerNames;
  ScopedSpan span(names.other);
  return CountErrors(base_->Delete(key));
}

dl::Result<bool> ProbeStore::Exists(std::string_view key) {
  const SpanNames& names = layer_ == Layer::kUpper ? kUpperNames : kLowerNames;
  ScopedSpan span(names.other);
  return CountErrors(base_->Exists(key));
}

dl::Result<uint64_t> ProbeStore::SizeOf(std::string_view key) {
  const SpanNames& names = layer_ == Layer::kUpper ? kUpperNames : kLowerNames;
  ScopedSpan span(names.other);
  return CountErrors(base_->SizeOf(key));
}

dl::Result<std::vector<std::string>> ProbeStore::ListPrefix(
    std::string_view prefix) {
  const SpanNames& names = layer_ == Layer::kUpper ? kUpperNames : kLowerNames;
  ScopedSpan span(names.other);
  return CountErrors(base_->ListPrefix(prefix));
}

CodecTimes ProbeCodec(dl::tsf::Tensor& images, size_t max_frames) {
  using dl::compress::Compression;
  CodecTimes times;
  const Compression codec = images.meta().sample_compression;
  if (codec != Compression::kImage && codec != Compression::kImageLossy) {
    return times;
  }
  struct Frame {
    dl::Slice bytes;
    dl::tsf::TensorShape shape;
  };
  std::vector<Frame> frames;
  for (const auto& entry : images.chunk_encoder().entries()) {
    if (frames.size() >= max_frames) break;
    auto bytes = images.store()->Get(images.ChunkKey(entry.chunk_id));
    if (!bytes.ok()) continue;
    auto chunk = dl::tsf::Chunk::Parse(std::move(*bytes));
    if (!chunk.ok()) continue;
    for (size_t i = 0; i < chunk->num_samples() && frames.size() < max_frames;
         ++i) {
      auto stored = chunk->StoredBytes(i);
      if (stored.ok()) {
        frames.push_back({std::move(*stored), chunk->header().shapes[i]});
      }
    }
  }
  if (frames.empty()) return times;

  // Three passes over the frames; each figure is the median of the three
  // per-pass means, which damps a pass disturbed by another process. A
  // frame any stage fails on is skipped and counted.
  std::vector<double> lz77_us, image_us, encode_us;
  for (int pass = 0; pass < 3; ++pass) {
    int64_t lz77_ns = 0, image_ns = 0, encode_ns = 0;
    size_t timed = 0;
    times.skipped_frames = 0;
    for (const Frame& f : frames) {
      dl::ByteView frame(f.bytes.data(), f.bytes.size());
      // The image frame header: magic, mode and quantizer bytes, then
      // pixel stride, row stride and raw size as varints; the embedded
      // LZ77 frame of the residual plane (raw size bytes) follows.
      dl::Decoder dec(frame);
      bool header_ok = dec.GetByte().ok() && dec.GetByte().ok() &&
                       dec.GetByte().ok() && dec.GetVarint64().ok() &&
                       dec.GetVarint64().ok();
      dl::Result<uint64_t> raw_size = dec.GetVarint64();
      if (!header_ok || !raw_size.ok()) {
        ++times.skipped_frames;
        continue;
      }
      dl::ByteView lz77 = frame.subview(dec.position());

      int64_t t0 = NowNs();
      dl::Result<dl::ByteBuffer> residual = dl::ByteBuffer();
      {
        ScopedSpan span("compress.lz77_decode");
        residual = dl::compress::DecompressBytes(Compression::kLz77, lz77);
      }
      int64_t t1 = NowNs();
      dl::Result<dl::ByteBuffer> pixels = dl::ByteBuffer();
      {
        ScopedSpan span("compress.image_decode");
        pixels = dl::compress::DecompressBytes(codec, frame);
      }
      int64_t t2 = NowNs();
      // A residual plane of another size means the header walk above no
      // longer matches the codec's frame layout.
      if (!residual.ok() || residual->size() != *raw_size || !pixels.ok()) {
        ++times.skipped_frames;
        continue;
      }
      dl::compress::CodecContext ctx =
          dl::tsf::ContextForSample(images.meta().dtype, f.shape);
      ctx.quality = images.meta().quality;
      dl::Result<dl::ByteBuffer> encoded = dl::ByteBuffer();
      {
        ScopedSpan span("compress.image_encode");
        encoded = dl::compress::CompressBytes(codec, dl::ByteView(*pixels), ctx);
      }
      int64_t t3 = NowNs();
      if (!encoded.ok()) {
        ++times.skipped_frames;
        continue;
      }
      lz77_ns += t1 - t0;
      image_ns += t2 - t1;
      encode_ns += t3 - t2;
      ++timed;
    }
    if (timed == 0) return CodecTimes{0, 0, 0, times.skipped_frames};
    double n = static_cast<double>(timed) * 1e3;
    lz77_us.push_back(static_cast<double>(lz77_ns) / n);
    image_us.push_back(static_cast<double>(image_ns) / n);
    encode_us.push_back(static_cast<double>(encode_ns) / n);
  }
  times.lz77_decode_us = Median(lz77_us);
  times.unfilter_us = Median(image_us) - times.lz77_decode_us;
  times.image_encode_us = Median(encode_us);
  return times;
}

}  // namespace perfbench
