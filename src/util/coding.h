#ifndef DEEPLAKE_UTIL_CODING_H_
#define DEEPLAKE_UTIL_CODING_H_

#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"

namespace dl {

// ---------------------------------------------------------------------------
// Fixed-width little-endian integer coding.
// ---------------------------------------------------------------------------

void PutFixed16(ByteBuffer& out, uint16_t v);
void PutFixed32(ByteBuffer& out, uint32_t v);
void PutFixed64(ByteBuffer& out, uint64_t v);

uint16_t DecodeFixed16(const uint8_t* p);
uint32_t DecodeFixed32(const uint8_t* p);
uint64_t DecodeFixed64(const uint8_t* p);

// ---------------------------------------------------------------------------
// Varint (LEB128) coding — compact storage for the chunk encoder, shape
// encoder and chunk headers where most values are small.
// ---------------------------------------------------------------------------

void PutVarint32(ByteBuffer& out, uint32_t v);
void PutVarint64(ByteBuffer& out, uint64_t v);

/// Bytes PutVarint64 writes for `v` (1 to 10).
constexpr size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag maps signed to unsigned so small-magnitude negatives stay short.
uint64_t ZigZagEncode(int64_t v);
int64_t ZigZagDecode(uint64_t v);
void PutVarintSigned64(ByteBuffer& out, int64_t v);

/// Incremental decoder over a byte view. All Get* methods return
/// Corruption on truncated input.
class Decoder {
 public:
  explicit Decoder(ByteView view) : view_(view), pos_(0) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return view_.size() - pos_; }
  bool done() const { return pos_ >= view_.size(); }

  Result<uint8_t> GetByte();
  Result<uint16_t> GetFixed16();
  Result<uint32_t> GetFixed32();
  Result<uint64_t> GetFixed64();
  Result<uint32_t> GetVarint32();
  Result<uint64_t> GetVarint64();
  Result<int64_t> GetVarintSigned64();

  /// Returns a view of the next `n` bytes and advances past them.
  Result<ByteView> GetBytes(size_t n);

  /// Length-prefixed string (varint length + raw bytes).
  Result<std::string> GetLengthPrefixedString();

  Status Skip(size_t n);

 private:
  // dllint-ok(slice-owner): Decoder is a transient parsing cursor over
  // caller-owned bytes; callers keep the backing buffer alive for the
  // decode's duration (always a single stack frame in this codebase).
  ByteView view_;
  size_t pos_;
};

/// Length-prefixed string writer, paired with Decoder::GetLengthPrefixedString.
void PutLengthPrefixedString(ByteBuffer& out, std::string_view s);

}  // namespace dl

#endif  // DEEPLAKE_UTIL_CODING_H_
