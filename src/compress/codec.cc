#include "compress/codec.h"

#include "util/macros.h"

namespace dl::compress {

// Singletons defined in the codec translation units.
const Codec* GetNoneCodec();
const Codec* GetLz77Codec();
const Codec* GetRleCodec();
const Codec* GetDeltaCodec();
const Codec* GetImageCodec();
const Codec* GetImageLossyCodec();

const Codec* GetCodec(Compression c) {
  switch (c) {
    case Compression::kNone:
      return GetNoneCodec();
    case Compression::kLz77:
      return GetLz77Codec();
    case Compression::kRle:
      return GetRleCodec();
    case Compression::kDelta:
      return GetDeltaCodec();
    case Compression::kImage:
      return GetImageCodec();
    case Compression::kImageLossy:
      return GetImageLossyCodec();
  }
  return GetNoneCodec();
}

Result<Compression> CompressionFromName(std::string_view name) {
  if (name.empty() || name == "none") return Compression::kNone;
  if (name == "lz77" || name == "lz4") return Compression::kLz77;
  if (name == "rle") return Compression::kRle;
  if (name == "delta") return Compression::kDelta;
  if (name == "image" || name == "png") return Compression::kImage;
  if (name == "image_lossy" || name == "jpeg" || name == "jpg") {
    return Compression::kImageLossy;
  }
  return Status::InvalidArgument("unknown compression '" + std::string(name) +
                                 "'");
}

std::string_view CompressionName(Compression c) {
  return GetCodec(c)->name();
}

Result<ByteBuffer> CompressBytes(Compression c, ByteView raw,
                                 const CodecContext& ctx) {
  return GetCodec(c)->Compress(raw, ctx);
}

Result<ByteBuffer> DecompressBytes(Compression c, ByteView frame) {
  return GetCodec(c)->Decompress(frame);
}

Result<ByteBuffer> Codec::Decompress(ByteView frame) const {
  ByteBuffer out;
  DL_RETURN_IF_ERROR(DecompressInto(frame, out));
  return out;
}

Result<Slice> DecompressToSlice(Compression c, ByteView frame,
                                BufferPool& pool) {
  ByteBuffer out;
  DL_RETURN_IF_ERROR(GetCodec(c)->DecompressInto(frame, out));
  return pool.Seal(std::move(out));
}

}  // namespace dl::compress
