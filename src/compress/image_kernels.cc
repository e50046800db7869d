// Paeth filter and quantizer kernels of the image codec (DESIGN.md §1),
// plus the per-byte reference kernels the parity tests compare them with.

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "compress/kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define DL_IMAGE_SIMD 1
#elif defined(__ARM_NEON) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#include <arm_neon.h>
#define DL_IMAGE_SIMD 1
#endif

namespace dl::compress {
namespace {

// Branchless Paeth predictor: pa, pb and pc are the distances from the
// estimate a + b - c to a (left), b (up) and c (upleft); ties go to a,
// then b, as in PNG.
inline uint8_t Paeth(int a, int b, int c) {
  int pa = std::abs(b - c);
  int pb = std::abs(a - c);
  int pc = std::abs(a + b - c - c);
  int bc = pb <= pc ? b : c;
  return static_cast<uint8_t>(((pa <= pb) & (pa <= pc)) ? a : bc);
}

#if DL_IMAGE_SIMD
// A 3- or 4-byte pixel as the low bytes of a word (little-endian). Fixed
// sizes keep these plain register moves; a variable-size memcpy would be a
// libc call per pixel.
template <size_t kBpp>
inline uint32_t LoadWord(const uint8_t* p) {
  static_assert(kBpp == 3 || kBpp == 4);
  if constexpr (kBpp == 4) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    return w;
  } else {
    uint16_t lo;
    std::memcpy(&lo, p, 2);
    return lo | (static_cast<uint32_t>(p[2]) << 16);
  }
}

template <size_t kBpp>
inline void StoreWord(uint8_t* p, uint32_t w) {
  static_assert(kBpp == 3 || kBpp == 4);
  if constexpr (kBpp == 4) {
    std::memcpy(p, &w, 4);
  } else {
    const uint16_t lo = static_cast<uint16_t>(w);
    std::memcpy(p, &lo, 2);
    p[2] = static_cast<uint8_t>(w >> 16);
  }
}

// SIMD building blocks, one set per instruction set (SSE2 is baseline on
// x86-64, NEON on aarch64). `V` holds eight 16-bit lanes: wide enough for
// a + b - 2c. Everything above the ops is written once.
#if defined(__SSE2__)
using V = __m128i;

inline V Load8(const uint8_t* p) {
  return _mm_unpacklo_epi8(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
      _mm_setzero_si128());
}
// Stores each lane mod 256, the codec's byte arithmetic.
inline void Store8(uint8_t* p, V v) {
  v = _mm_and_si128(v, _mm_set1_epi16(0xff));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packus_epi16(v, v));
}
// One pixel in the low lanes.
template <size_t kBpp>
inline V LoadPixel(const uint8_t* p) {
  return _mm_unpacklo_epi8(
      _mm_cvtsi32_si128(static_cast<int>(LoadWord<kBpp>(p))),
      _mm_setzero_si128());
}
// Requires lanes already in [0, 255].
template <size_t kBpp>
inline void StorePixel(uint8_t* p, V v) {
  StoreWord<kBpp>(p, static_cast<uint32_t>(
                         _mm_cvtsi128_si32(_mm_packus_epi16(v, v))));
}
inline V Add(V x, V y) { return _mm_add_epi16(x, y); }
// x + y mod 256 for lanes in [0, 255]: a byte add carries nothing into the
// (zero) high byte.
inline V AddBytes(V x, V y) { return _mm_add_epi8(x, y); }
inline V Sub(V x, V y) { return _mm_sub_epi16(x, y); }
inline V Abs(V x) {
  return _mm_max_epi16(x, _mm_sub_epi16(_mm_setzero_si128(), x));
}
inline V Min(V x, V y) { return _mm_min_epi16(x, y); }
inline V Eq(V x, V y) { return _mm_cmpeq_epi16(x, y); }
inline V Select(V mask, V t, V f) {
  return _mm_or_si128(_mm_and_si128(mask, t), _mm_andnot_si128(mask, f));
}

// Sixteen bytes at a time. SSE2 has no byte shift: shift 16-bit lanes and
// mask off the bits that crossed into the neighbouring byte.
inline void Quantize16(const uint8_t* p, uint8_t* q, int shift) {
  V v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  v = _mm_and_si128(_mm_srl_epi16(v, _mm_cvtsi32_si128(shift)),
                    _mm_set1_epi8(static_cast<char>(0xff >> shift)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(q), v);
}
inline void Dequantize16(uint8_t* p, int shift, uint8_t center) {
  V v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  v = _mm_and_si128(_mm_sll_epi16(v, _mm_cvtsi32_si128(shift)),
                    _mm_set1_epi8(static_cast<char>((0xff << shift) & 0xff)));
  v = _mm_or_si128(v, _mm_set1_epi8(static_cast<char>(center)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
#else   // NEON
using V = int16x8_t;

inline V Load8(const uint8_t* p) {
  return vreinterpretq_s16_u16(vmovl_u8(vld1_u8(p)));
}
// Narrowing keeps each lane mod 256, the codec's byte arithmetic.
inline void Store8(uint8_t* p, V v) {
  vst1_u8(p, vmovn_u16(vreinterpretq_u16_s16(v)));
}
template <size_t kBpp>
inline V LoadPixel(const uint8_t* p) {
  return vreinterpretq_s16_u16(vmovl_u8(vcreate_u8(LoadWord<kBpp>(p))));
}
template <size_t kBpp>
inline void StorePixel(uint8_t* p, V v) {
  uint8x8_t n = vmovn_u16(vreinterpretq_u16_s16(v));
  StoreWord<kBpp>(p, vget_lane_u32(vreinterpret_u32_u8(n), 0));
}
inline V Add(V x, V y) { return vaddq_s16(x, y); }
// x + y mod 256 for lanes in [0, 255]: a byte add carries nothing into the
// (zero) high byte.
inline V AddBytes(V x, V y) {
  return vreinterpretq_s16_u8(
      vaddq_u8(vreinterpretq_u8_s16(x), vreinterpretq_u8_s16(y)));
}
inline V Sub(V x, V y) { return vsubq_s16(x, y); }
inline V Abs(V x) { return vabsq_s16(x); }
inline V Min(V x, V y) { return vminq_s16(x, y); }
inline V Eq(V x, V y) { return vreinterpretq_s16_u16(vceqq_s16(x, y)); }
inline V Select(V mask, V t, V f) {
  return vbslq_s16(vreinterpretq_u16_s16(mask), t, f);
}

// Sixteen bytes at a time; NEON shifts bytes directly (a negative count
// shifts right).
inline void Quantize16(const uint8_t* p, uint8_t* q, int shift) {
  vst1q_u8(q, vshlq_u8(vld1q_u8(p), vdupq_n_s8(static_cast<int8_t>(-shift))));
}
inline void Dequantize16(uint8_t* p, int shift, uint8_t center) {
  uint8x16_t v = vshlq_u8(vld1q_u8(p), vdupq_n_s8(static_cast<int8_t>(shift)));
  vst1q_u8(p, vorrq_u8(v, vdupq_n_u8(center)));
}
#endif

// Paeth on eight lanes, in the scalar predictor's tie order.
inline V Paeth(V a, V b, V c) {
  V pa = Sub(b, c);
  V pb = Sub(a, c);
  V pc = Abs(Add(pa, pb));
  pa = Abs(pa);
  pb = Abs(pb);
  V smallest = Min(pc, Min(pa, pb));
  return Select(Eq(smallest, pa), a, Select(Eq(smallest, pb), b, c));
}

// Decodes pixels 1.. of a row whose first pixel is done, keeping the left
// (a) and upleft (c) pixels in registers. Requires len >= kBpp; returns the
// byte count handled (whole pixels only).
template <size_t kBpp>
size_t UnfilterPixels(uint8_t* row, const uint8_t* prev, size_t len) {
  const size_t end = len / kBpp * kBpp;
  V a = LoadPixel<kBpp>(row);
  V c = LoadPixel<kBpp>(prev);
  for (size_t i = kBpp; i < end; i += kBpp) {
    V b = LoadPixel<kBpp>(prev + i);
    a = AddBytes(LoadPixel<kBpp>(row + i), Paeth(a, b, c));
    StorePixel<kBpp>(row + i, a);
    c = b;
  }
  return end;
}

// Residuals of a row's interior, eight bytes at a time: every input is a
// raw byte, so there is no left-to-right dependency. Returns the first
// byte left for the scalar tail.
size_t FilterRun(const uint8_t* row, const uint8_t* prev, uint8_t* res,
                 size_t len, size_t bpp) {
  size_t i = bpp;
  for (; i + 8 <= len; i += 8) {
    Store8(res + i, Sub(Load8(row + i), Paeth(Load8(row + i - bpp),
                                              Load8(prev + i),
                                              Load8(prev + i - bpp))));
  }
  return i;
}

#endif  // DL_IMAGE_SIMD

}  // namespace

ByteBuffer FilterPlane(ByteView raw, size_t stride, size_t bpp) {
  const size_t n = raw.size();
  ByteBuffer out(n);
  const uint8_t* p = raw.data();
  uint8_t* q = out.data();
  // First row: Paeth(left, 0, 0) is the left neighbour.
  const size_t len0 = std::min(stride, n);
  for (size_t i = 0; i < std::min(bpp, len0); ++i) q[i] = p[i];
  for (size_t i = bpp; i < len0; ++i) {
    q[i] = static_cast<uint8_t>(p[i] - p[i - bpp]);
  }
  for (size_t start = stride; start < n; start += stride) {
    const uint8_t* row = p + start;
    const uint8_t* prev = row - stride;
    uint8_t* res = q + start;
    const size_t len = std::min(stride, n - start);
    // First pixel: Paeth(0, up, 0) is the pixel above.
    for (size_t i = 0; i < std::min(bpp, len); ++i) {
      res[i] = static_cast<uint8_t>(row[i] - prev[i]);
    }
    size_t i = bpp;
#if DL_IMAGE_SIMD
    i = FilterRun(row, prev, res, len, bpp);
#endif
    for (; i < len; ++i) {
      res[i] = static_cast<uint8_t>(row[i] -
                                    Paeth(row[i - bpp], prev[i], prev[i - bpp]));
    }
  }
  return out;
}

void UnfilterPlane(uint8_t* data, size_t n, size_t stride, size_t bpp) {
  const size_t len0 = std::min(stride, n);
  for (size_t i = bpp; i < len0; ++i) {
    data[i] = static_cast<uint8_t>(data[i] + data[i - bpp]);
  }
  for (size_t start = stride; start < n; start += stride) {
    uint8_t* row = data + start;
    const uint8_t* prev = row - stride;
    const size_t len = std::min(stride, n - start);
    for (size_t i = 0; i < std::min(bpp, len); ++i) {
      row[i] = static_cast<uint8_t>(row[i] + prev[i]);
    }
    size_t i = bpp;
#if DL_IMAGE_SIMD
    if (bpp == 3 && len >= 3) {
      i = UnfilterPixels<3>(row, prev, len);
    } else if (bpp == 4 && len >= 4) {
      i = UnfilterPixels<4>(row, prev, len);
    }
#endif
    for (; i < len; ++i) {
      row[i] = static_cast<uint8_t>(row[i] +
                                    Paeth(row[i - bpp], prev[i], prev[i - bpp]));
    }
  }
}

void QuantizePlane(ByteView raw, int shift, uint8_t* out) {
  const uint8_t* p = raw.data();
  const size_t n = raw.size();
  size_t i = 0;
#if DL_IMAGE_SIMD
  for (; i + 16 <= n; i += 16) Quantize16(p + i, out + i, shift);
#endif
  for (; i < n; ++i) out[i] = static_cast<uint8_t>(p[i] >> shift);
}

void DequantizePlane(uint8_t* data, size_t n, int shift) {
  const uint8_t center = static_cast<uint8_t>(1u << (shift - 1));
  size_t i = 0;
#if DL_IMAGE_SIMD
  for (; i + 16 <= n; i += 16) Dequantize16(data + i, shift, center);
#endif
  for (; i < n; ++i) {
    data[i] = static_cast<uint8_t>((data[i] << shift) | center);
  }
}

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

namespace {

uint8_t PaethReference(uint8_t left, uint8_t up, uint8_t upleft) {
  int p = static_cast<int>(left) + up - upleft;
  int pa = std::abs(p - left);
  int pb = std::abs(p - up);
  int pc = std::abs(p - upleft);
  if (pa <= pb && pa <= pc) return left;
  if (pb <= pc) return up;
  return upleft;
}

}  // namespace

ByteBuffer FilterPlaneReference(ByteView raw, size_t stride, size_t bpp) {
  ByteBuffer out(raw.size());
  const uint8_t* p = raw.data();
  size_t n = raw.size();
  for (size_t i = 0; i < n; ++i) {
    size_t col = i % stride;
    uint8_t left = col >= bpp ? p[i - bpp] : 0;
    uint8_t up = i >= stride ? p[i - stride] : 0;
    uint8_t upleft = (i >= stride && col >= bpp) ? p[i - stride - bpp] : 0;
    out[i] = static_cast<uint8_t>(p[i] - PaethReference(left, up, upleft));
  }
  return out;
}

void UnfilterPlaneReference(uint8_t* data, size_t n, size_t stride,
                            size_t bpp) {
  for (size_t i = 0; i < n; ++i) {
    size_t col = i % stride;
    uint8_t left = col >= bpp ? data[i - bpp] : 0;
    uint8_t up = i >= stride ? data[i - stride] : 0;
    uint8_t upleft = (i >= stride && col >= bpp) ? data[i - stride - bpp] : 0;
    data[i] = static_cast<uint8_t>(data[i] + PaethReference(left, up, upleft));
  }
}

}  // namespace dl::compress
