// LZ4-style LZ77 byte compressor. Frame layout:
//   varint raw_size
//   sequences until raw_size bytes are produced:
//     token byte: (literal_len << 4) | match_len_minus_4
//       nibble value 15 means "extended": extra bytes of 255 follow, then a
//       terminator byte < 255, all summed.
//     literal bytes
//     [if match_len nibble > 0 or extended] 2-byte LE offset (1..65535),
//       then extended match length bytes if the nibble was 15.
// The final sequence carries literals only (match nibble 0, no offset) —
// signalled by the stream ending exactly at raw_size.

#include <algorithm>
#include <cstring>

#include "compress/codec.h"
#include "compress/kernels.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress {
namespace {

constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

void PutLen(ByteBuffer& out, size_t extra) {
  // Writes the extension bytes for a nibble that was 15.
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<uint8_t>(extra));
}

void EmitSequence(ByteBuffer& out, const uint8_t* lit_start, size_t lit_len,
                  size_t match_len, size_t offset) {
  uint8_t lit_nibble = lit_len >= 15 ? 15 : static_cast<uint8_t>(lit_len);
  uint8_t match_nibble = 0;
  bool has_match = match_len >= kMinMatch;
  if (has_match) {
    size_t ml = match_len - kMinMatch;
    match_nibble = ml >= 15 ? 15 : static_cast<uint8_t>(ml);
  }
  out.push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutLen(out, lit_len - 15);
  out.insert(out.end(), lit_start, lit_start + lit_len);
  if (has_match) {
    out.push_back(static_cast<uint8_t>(offset));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_nibble == 15) PutLen(out, match_len - kMinMatch - 15);
  }
}

// raw_size comes off the wire: sanity-bound it before allocating. Each
// frame byte can contribute at most 255 output bytes (a match length
// extension byte of 255), so anything beyond that ratio is a corrupt header
// — reject it instead of attempting a huge allocation.
Status CheckRawSize(uint64_t raw_size, ByteView frame) {
  if (raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
    return Status::Corruption("lz77: raw size implausible for frame");
  }
  return Status::OK();
}

Status Truncated() { return Status::Corruption("lz77: truncated frame"); }

// Adds the extension bytes of a length nibble that was 15: bytes of 255,
// then a terminator below 255. False when the input ends first.
bool ReadLengthExtension(const uint8_t*& ip, const uint8_t* iend,
                         size_t* len) {
  while (ip != iend) {
    const uint8_t b = *ip++;
    *len += b;
    if (b != 255) return true;
  }
  return false;
}

// Literal runs of up to kWildCopy bytes move as one fixed-size copy, and
// matches at least kWordCopy back move a word at a time. Both may write
// past the run's end while that much output room is left; later sequences
// overwrite those bytes before anything reads them.
constexpr size_t kWildCopy = 16;
constexpr size_t kWordCopy = 8;
// Overlapping matches up to this length go byte by byte.
constexpr size_t kShortMatch = 32;

// Copies `len` literal bytes; the caller has checked `len` against both
// the input left (`in_room`) and the output left (`out_room`).
inline void CopyLiterals(uint8_t* dst, const uint8_t* src, size_t len,
                         size_t in_room, size_t out_room) {
  if (len <= kWildCopy && in_room >= kWildCopy && out_room >= kWildCopy) {
    std::memcpy(dst, src, kWildCopy);
  } else {
    std::memcpy(dst, src, len);
  }
}

// Copies a match of `len` bytes starting `offset` bytes back from `dst`;
// the caller has checked both against the output, of which `out_room`
// bytes are left. A match repeats its first `offset` bytes when it
// overlaps itself (offset < len).
inline void CopyMatch(uint8_t* dst, size_t offset, size_t len,
                      size_t out_room) {
  const uint8_t* src = dst - offset;
  if (offset >= kWordCopy && len + kWordCopy <= out_room) {
    // Each word reads bytes at least one word behind the write.
    for (size_t k = 0; k < len; k += kWordCopy) {
      std::memcpy(dst + k, src + k, kWordCopy);
    }
  } else if (offset >= len) {
    std::memcpy(dst, src, len);
  } else if (len <= kShortMatch) {
    for (size_t k = 0; k < len; ++k) dst[k] = src[k];
  } else {
    // Seed one period, then double the copied span, which stays a whole
    // number of periods.
    std::memcpy(dst, src, offset);
    size_t done = offset;
    while (done < len) {
      const size_t chunk = std::min(done, len - done);
      std::memcpy(dst + done, dst, chunk);
      done += chunk;
    }
  }
}

class Lz77Codec final : public Codec {
 public:
  Compression id() const override { return Compression::kLz77; }
  std::string_view name() const override { return "lz77"; }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& /*ctx*/) const override {
    ByteBuffer out;
    out.reserve(raw.size() / 2 + 16);
    PutVarint64(out, raw.size());
    const uint8_t* base = raw.data();
    const size_t n = raw.size();
    if (n == 0) return out;

    std::vector<uint32_t> table(kHashSize, UINT32_MAX);
    size_t i = 0;
    size_t anchor = 0;  // start of pending literals
    // Matches may not extend into the last kMinMatch bytes so the decoder's
    // wild-copy-free loop stays simple.
    const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
    while (i + kMinMatch <= n && i < match_limit) {
      uint32_t h = Hash4(base + i);
      uint32_t cand = table[h];
      table[h] = static_cast<uint32_t>(i);
      if (cand != UINT32_MAX && i - cand <= kMaxOffset &&
          Load32(base + cand) == Load32(base + i)) {
        // Extend the match forward.
        size_t match_len = kMinMatch;
        while (i + match_len < n &&
               base[cand + match_len] == base[i + match_len]) {
          ++match_len;
        }
        EmitSequence(out, base + anchor, i - anchor, match_len, i - cand);
        // Index a couple of positions inside the match to keep the table
        // warm without hashing every byte.
        size_t end = i + match_len;
        for (size_t p = i + 1; p + kMinMatch <= end && p + kMinMatch <= n;
             p += match_len / 4 + 1) {
          table[Hash4(base + p)] = static_cast<uint32_t>(p);
        }
        i = end;
        anchor = i;
      } else {
        ++i;
      }
    }
    // Trailing literals.
    if (anchor < n) {
      EmitSequence(out, base + anchor, n - anchor, 0, 0);
    }
    return out;
  }

  Status DecompressInto(ByteView frame, ByteBuffer& out) const override {
    out.clear();
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    DL_RETURN_IF_ERROR(CheckRawSize(raw_size, frame));
    // Sized once; every copy below is checked against the input end and
    // raw_size before it writes.
    out.resize(static_cast<size_t>(raw_size));
    const uint8_t* ip = frame.data() + dec.position();
    const uint8_t* const iend = frame.data() + frame.size();
    uint8_t* const base = out.data();
    const size_t n = out.size();
    size_t op = 0;
    while (op < n) {
      if (ip == iend) return Truncated();
      const uint8_t token = *ip++;
      size_t lit_len = token >> 4;
      if (lit_len == 15 && !ReadLengthExtension(ip, iend, &lit_len)) {
        return Truncated();
      }
      if (lit_len > static_cast<size_t>(iend - ip)) return Truncated();
      if (lit_len > n - op) {
        return Status::Corruption("lz77: literals overrun raw size");
      }
      CopyLiterals(base + op, ip, lit_len, static_cast<size_t>(iend - ip),
                   n - op);
      ip += lit_len;
      op += lit_len;
      if (op == n) break;  // final literal-only sequence
      if (iend - ip < 2) return Truncated();
      const size_t offset =
          static_cast<size_t>(ip[0]) | (static_cast<size_t>(ip[1]) << 8);
      ip += 2;
      size_t match_len = token & 0x0f;
      if (match_len == 15 && !ReadLengthExtension(ip, iend, &match_len)) {
        return Truncated();
      }
      match_len += kMinMatch;
      if (offset == 0 || offset > op) {
        return Status::Corruption("lz77: bad match offset");
      }
      if (match_len > n - op) {
        return Status::Corruption("lz77: match overruns raw size");
      }
      CopyMatch(base + op, offset, match_len, n - op);
      op += match_len;
    }
    return Status::OK();
  }
};

}  // namespace

Status Lz77DecompressReference(ByteView frame, ByteBuffer& out) {
  out.clear();
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
  DL_RETURN_IF_ERROR(CheckRawSize(raw_size, frame));
  out.reserve(static_cast<size_t>(raw_size));
  while (out.size() < raw_size) {
    DL_ASSIGN_OR_RETURN(uint8_t token, dec.GetByte());
    size_t lit_len = token >> 4;
    if (lit_len == 15) {
      while (true) {
        DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
        lit_len += b;
        if (b != 255) break;
      }
    }
    DL_ASSIGN_OR_RETURN(ByteView lits, dec.GetBytes(lit_len));
    out.insert(out.end(), lits.begin(), lits.end());
    if (out.size() >= raw_size) break;  // final literal-only sequence
    size_t match_len = token & 0x0f;
    DL_ASSIGN_OR_RETURN(uint8_t o0, dec.GetByte());
    DL_ASSIGN_OR_RETURN(uint8_t o1, dec.GetByte());
    size_t offset = static_cast<size_t>(o0) | (static_cast<size_t>(o1) << 8);
    if (match_len == 15) {
      while (true) {
        DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
        match_len += b;
        if (b != 255) break;
      }
    }
    match_len += kMinMatch;
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("lz77: bad match offset");
    }
    if (out.size() + match_len > raw_size) {
      return Status::Corruption("lz77: match overruns raw size");
    }
    // Byte-wise copy: handles overlapping matches (offset < match_len).
    size_t src = out.size() - offset;
    for (size_t k = 0; k < match_len; ++k) out.push_back(out[src + k]);
  }
  if (out.size() != raw_size) {
    return Status::Corruption("lz77: frame shorter than raw size");
  }
  return Status::OK();
}

const Codec* GetLz77Codec() {
  static const Lz77Codec* kCodec = new Lz77Codec();
  return kCodec;
}

}  // namespace dl::compress
