#ifndef DEEPLAKE_COMPRESS_KERNELS_H_
#define DEEPLAKE_COMPRESS_KERNELS_H_

// Inner loops of the image codec and the LZ77 decoder, private to
// src/compress/ (DESIGN.md §1). Each fast kernel has a per-byte reference
// twin that is kept only so tests/fuzz_roundtrip_test.cc can check the two
// byte for byte, the way util/crc32.h keeps Crc32cExtendSoftware.

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"
#include "util/status.h"

namespace dl::compress {

/// Paeth residuals of `raw`: `stride` bytes per row, `bpp` bytes per pixel
/// (the left-neighbour distance). Any non-zero stride/bpp pair is accepted,
/// including stride < bpp and a ragged last row. Row-wise and vectorized.
ByteBuffer FilterPlane(ByteView raw, size_t stride, size_t bpp);

/// Inverse of FilterPlane, in place over `data[0, n)`. Row-wise: the first
/// row adds the left neighbour, the first pixel of each later row adds the
/// pixel above, the interior uses a branchless Paeth (a per-pixel SIMD path
/// for bpp 3 and 4 on SSE2 and NEON builds).
void UnfilterPlane(uint8_t* data, size_t n, size_t stride, size_t bpp);

/// Lossy-mode quantizer `out[i] = raw[i] >> shift` and its inverse
/// `data[i] = (data[i] << shift) | (1 << (shift - 1))` (the bucket centre);
/// shift in [1, 7].
void QuantizePlane(ByteView raw, int shift, uint8_t* out);
void DequantizePlane(uint8_t* data, size_t n, int shift);

/// The original per-byte kernels: a `%` per byte and a branchy Paeth.
ByteBuffer FilterPlaneReference(ByteView raw, size_t stride, size_t bpp);
void UnfilterPlaneReference(uint8_t* data, size_t n, size_t stride,
                            size_t bpp);

/// The original LZ77 decoder: one bounds-checked byte at a time through
/// `push_back`. Accepts and rejects exactly the frames the codec does.
Status Lz77DecompressReference(ByteView frame, ByteBuffer& out);

}  // namespace dl::compress

#endif  // DEEPLAKE_COMPRESS_KERNELS_H_
