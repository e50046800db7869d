#include "tsf/chunk.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/macros.h"

namespace dl::tsf {

namespace {
constexpr uint8_t kMagic[4] = {'D', 'L', 'C', '1'};
constexpr uint8_t kVersion = 1;
}  // namespace

compress::CodecContext ContextForSample(DType dtype,
                                        const TensorShape& shape) {
  compress::CodecContext ctx;
  size_t elem = DTypeSize(dtype);
  if (shape.ndim() >= 2) {
    uint64_t row = elem;
    for (size_t d = 1; d < shape.ndim(); ++d) row *= shape[d];
    ctx.row_stride = row;
    ctx.elem_size = static_cast<uint32_t>(
        shape.ndim() >= 3 ? shape[shape.ndim() - 1] * elem : elem);
  } else {
    ctx.row_stride = 0;
    ctx.elem_size = static_cast<uint32_t>(elem);
  }
  return ctx;
}

// ---------------------------------------------------------------------------
// ChunkHeader
// ---------------------------------------------------------------------------

void ChunkHeader::SampleRange(size_t i, uint64_t* offset,
                              uint64_t* len) const {
  uint64_t off = payload_offset;
  for (size_t k = 0; k < i; ++k) off += stored_lens[k];
  *offset = off;
  *len = stored_lens[i];
}

Result<uint32_t> ChunkHeader::PeekHeaderLen(ByteView prefix) {
  if (prefix.size() < kFixedPrefix) {
    return Status::Corruption("chunk: prefix too short");
  }
  if (std::memcmp(prefix.data(), kMagic, 4) != 0) {
    return Status::Corruption("chunk: bad magic");
  }
  if (prefix[4] != kVersion) {
    return Status::Corruption("chunk: unsupported version");
  }
  return DecodeFixed32(prefix.data() + 8);
}

Result<ChunkHeader> ChunkHeader::Parse(ByteView chunk_prefix) {
  DL_ASSIGN_OR_RETURN(uint32_t header_len, PeekHeaderLen(chunk_prefix));
  if (chunk_prefix.size() < kFixedPrefix + header_len) {
    return Status::Corruption("chunk: truncated header");
  }
  ChunkHeader h;
  h.dtype = static_cast<DType>(chunk_prefix[5]);
  h.sample_compression =
      static_cast<compress::Compression>(chunk_prefix[6]);
  h.chunk_compression =
      static_cast<compress::Compression>(chunk_prefix[7]);
  Decoder dec{chunk_prefix.subview(kFixedPrefix, header_len)};
  DL_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  h.stored_lens.reserve(n);
  h.shapes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t len, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(TensorShape shape, TensorShape::Decode(dec));
    h.stored_lens.push_back(len);
    h.shapes.push_back(std::move(shape));
  }
  h.payload_offset = kFixedPrefix + header_len;
  return h;
}

// ---------------------------------------------------------------------------
// ChunkBuilder
// ---------------------------------------------------------------------------

ChunkBuilder::ChunkBuilder(DType dtype,
                           compress::Compression sample_compression,
                           compress::Compression chunk_compression)
    : dtype_(dtype),
      sample_compression_(sample_compression),
      chunk_compression_(chunk_compression) {}

Status ChunkBuilder::Append(const Sample& sample) {
  DL_RETURN_IF_ERROR(sample.Validate());
  if (sample_compression_ == compress::Compression::kNone ||
      sample.data.empty()) {
    AppendBytes(payload_, ByteView(sample.data));
    stored_lens_.push_back(sample.data.size());
  } else {
    compress::CodecContext ctx = ContextForSample(dtype_, sample.shape);
    DL_ASSIGN_OR_RETURN(
        ByteBuffer frame,
        compress::CompressBytes(sample_compression_, ByteView(sample.data),
                                ctx));
    stored_lens_.push_back(frame.size());
    AppendBytes(payload_, ByteView(frame));
  }
  shapes_.push_back(sample.shape);
  return Status::OK();
}

Status ChunkBuilder::AppendPrecompressed(ByteView frame,
                                         const TensorShape& shape) {
  if (sample_compression_ == compress::Compression::kNone) {
    return Status::FailedPrecondition(
        "chunk: precompressed append requires sample compression");
  }
  AppendBytes(payload_, frame);
  stored_lens_.push_back(frame.size());
  shapes_.push_back(shape);
  return Status::OK();
}

Result<Sample> ChunkBuilder::ReadBuffered(size_t local_index) const {
  if (local_index >= shapes_.size()) {
    return Status::OutOfRange("chunk builder: no buffered sample " +
                              std::to_string(local_index));
  }
  uint64_t off = 0;
  for (size_t k = 0; k < local_index; ++k) off += stored_lens_[k];
  ByteView stored = ByteView(payload_).subview(off, stored_lens_[local_index]);
  // dllint-ok(hot-path-copy): payload_ is the builder's live buffer and
  // the next Append may
  // reallocate it, so a borrowed view would dangle. ReadBuffered only serves
  // read-your-own-writes before Seal — never the epoch hot loop.
  return DecodeStoredSample(Slice::CopyOf(stored), sample_compression_,
                            dtype_, shapes_[local_index]);
}

Result<ByteBuffer> ChunkBuilder::Finish() {
  ByteBuffer header;
  PutVarint64(header, shapes_.size());
  for (size_t i = 0; i < shapes_.size(); ++i) {
    PutVarint64(header, stored_lens_[i]);
    shapes_[i].Encode(header);
  }

  ByteBuffer out;
  out.reserve(ChunkHeader::kFixedPrefix + header.size() + payload_.size() +
              4);
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kVersion);
  out.push_back(static_cast<uint8_t>(dtype_));
  out.push_back(static_cast<uint8_t>(sample_compression_));
  out.push_back(static_cast<uint8_t>(chunk_compression_));
  PutFixed32(out, static_cast<uint32_t>(header.size()));
  AppendBytes(out, ByteView(header));

  if (chunk_compression_ == compress::Compression::kNone) {
    AppendBytes(out, ByteView(payload_));
  } else {
    compress::CodecContext ctx;
    ctx.elem_size = static_cast<uint32_t>(DTypeSize(dtype_));
    DL_ASSIGN_OR_RETURN(
        ByteBuffer frame,
        compress::CompressBytes(chunk_compression_, ByteView(payload_), ctx));
    AppendBytes(out, ByteView(frame));
  }
  PutFixed32(out, Crc32c(ByteView(out)));

  payload_.clear();
  stored_lens_.clear();
  shapes_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

Result<Chunk> Chunk::Parse(Slice bytes, bool verify_checksum) {
  if (bytes.size() < ChunkHeader::kFixedPrefix + 4) {
    return Status::Corruption("chunk: object too small");
  }
  if (verify_checksum) {
    uint32_t stored_crc = DecodeFixed32(bytes.data() + bytes.size() - 4);
    uint32_t actual_crc = Crc32c(ByteView(bytes.data(), bytes.size() - 4));
    if (stored_crc != actual_crc) {
      return Status::Corruption("chunk: CRC mismatch");
    }
  }
  DL_ASSIGN_OR_RETURN(ChunkHeader header, ChunkHeader::Parse(bytes));
  Slice decompressed;
  if (header.chunk_compression != compress::Compression::kNone) {
    ByteView frame = bytes.view().subview(
        header.payload_offset,
        bytes.size() - header.payload_offset - 4);
    // The decoded buffer is freed when the last sample slice referencing
    // it drops; the default pool counts it while it lives.
    DL_ASSIGN_OR_RETURN(
        decompressed,
        compress::DecompressToSlice(header.chunk_compression, frame));
  }
  return Chunk(std::move(header), std::move(bytes), std::move(decompressed));
}

Slice Chunk::Payload() const {
  if (header_.chunk_compression != compress::Compression::kNone) {
    return decompressed_payload_;
  }
  return bytes_.subslice(header_.payload_offset,
                         bytes_.size() - header_.payload_offset - 4);
}

Result<Slice> Chunk::StoredBytes(size_t local_index) const {
  if (local_index >= header_.num_samples()) {
    return Status::OutOfRange("chunk: sample index " +
                              std::to_string(local_index) + " of " +
                              std::to_string(header_.num_samples()));
  }
  uint64_t off = 0;
  for (size_t k = 0; k < local_index; ++k) off += header_.stored_lens[k];
  return Payload().subslice(off, header_.stored_lens[local_index]);
}

Result<Sample> Chunk::ReadSample(size_t local_index) const {
  DL_ASSIGN_OR_RETURN(Slice stored, StoredBytes(local_index));
  return DecodeStoredSample(std::move(stored), header_.sample_compression,
                            header_.dtype, header_.shapes[local_index]);
}

Result<Sample> DecodeStoredSample(Slice stored,
                                  compress::Compression sample_compression,
                                  DType dtype, const TensorShape& shape) {
  Sample out;
  out.dtype = dtype;
  out.shape = shape;
  if (sample_compression == compress::Compression::kNone || stored.empty()) {
    // Zero copy: the sample views the stored bytes and shares their
    // keep-alive (the chunk's buffer, which may itself be the LRU entry).
    out.data = std::move(stored);
  } else {
    DL_ASSIGN_OR_RETURN(out.data, compress::DecompressToSlice(
                                      sample_compression, stored));
  }
  DL_RETURN_IF_ERROR(out.Validate());
  return out;
}

}  // namespace dl::tsf
