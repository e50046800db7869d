// Predictive image codec — the repo's stand-in for PNG (lossless mode) and
// JPEG (lossy mode). See DESIGN.md §1.
//
// Pipeline: [quantize (lossy only)] -> per-row Paeth prediction residuals
// -> LZ77 entropy stage. The frame is self-describing:
//   u8 magic 'I', u8 mode (0 lossless / 1 lossy), u8 quant_shift,
//   varint pixel_stride (channels), varint row_stride (width*channels),
//   varint raw_size, then an embedded LZ77 frame of the residual plane.

#include "compress/codec.h"
#include "compress/kernels.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress {

const Codec* GetLz77Codec();

namespace {

constexpr uint8_t kMagic = 'I';

int ShiftForQuality(int quality) {
  if (quality <= 0) quality = 75;  // default
  if (quality > 100) quality = 100;
  if (quality >= 90) return 0;
  if (quality >= 70) return 1;
  if (quality >= 50) return 2;
  if (quality >= 30) return 3;
  return 4;
}

class ImageCodec : public Codec {
 public:
  explicit ImageCodec(bool lossy) : lossy_(lossy) {}

  Compression id() const override {
    return lossy_ ? Compression::kImageLossy : Compression::kImage;
  }
  std::string_view name() const override {
    return lossy_ ? "image_lossy" : "image";
  }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& ctx) const override {
    size_t stride = ctx.row_stride > 0 && ctx.row_stride <= raw.size()
                        ? ctx.row_stride
                        : (raw.size() > 0 ? raw.size() : 1);
    size_t bpp = ctx.elem_size > 0 ? ctx.elem_size : 1;
    if (bpp > stride) bpp = stride;
    int shift = lossy_ ? ShiftForQuality(ctx.quality) : 0;

    ByteBuffer plane;
    ByteView source = raw;
    if (shift > 0) {
      plane.resize(raw.size());
      QuantizePlane(raw, shift, plane.data());
      source = ByteView(plane);
    }
    ByteBuffer residuals = FilterPlane(source, stride, bpp);

    ByteBuffer out;
    out.push_back(kMagic);
    out.push_back(lossy_ ? 1 : 0);
    out.push_back(static_cast<uint8_t>(shift));
    PutVarint64(out, bpp);
    PutVarint64(out, stride);
    PutVarint64(out, raw.size());
    DL_ASSIGN_OR_RETURN(ByteBuffer lz,
                        GetLz77Codec()->Compress(ByteView(residuals), {}));
    AppendBytes(out, ByteView(lz));
    return out;
  }

  Status DecompressInto(ByteView frame, ByteBuffer& out) const override {
    out.clear();
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
    if (magic != kMagic) return Status::Corruption("image: bad magic");
    DL_ASSIGN_OR_RETURN(uint8_t mode, dec.GetByte());
    DL_ASSIGN_OR_RETURN(uint8_t shift, dec.GetByte());
    DL_ASSIGN_OR_RETURN(uint64_t bpp, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(uint64_t stride, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    if (stride == 0 || bpp == 0) {
      return Status::Corruption("image: zero stride");
    }
    // The encoder shifts by at most 4; a byte shift beyond 7 is corrupt.
    if (mode == 1 && shift > 7) {
      return Status::Corruption("image: bad quantizer shift");
    }
    DL_ASSIGN_OR_RETURN(ByteView rest, dec.GetBytes(dec.remaining()));
    // The embedded LZ77 stage unpacks the residual plane straight into the
    // caller's buffer; unfiltering then runs in place.
    DL_RETURN_IF_ERROR(GetLz77Codec()->DecompressInto(rest, out));
    if (out.size() != raw_size) {
      return Status::Corruption("image: residual plane size mismatch");
    }
    UnfilterPlane(out.data(), out.size(), stride, bpp);
    if (mode == 1 && shift > 0) DequantizePlane(out.data(), out.size(), shift);
    return Status::OK();
  }

 private:
  bool lossy_;
};

}  // namespace

Result<ImageFrameInfo> PeekImageFrameInfo(ByteView frame) {
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
  if (magic != kMagic) return Status::Corruption("image: bad magic");
  DL_ASSIGN_OR_RETURN(uint8_t mode, dec.GetByte());
  DL_RETURN_IF_ERROR(dec.Skip(1));  // quant shift
  DL_ASSIGN_OR_RETURN(uint64_t bpp, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(uint64_t stride, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
  if (bpp == 0 || stride == 0 || stride % bpp != 0 ||
      raw_size % stride != 0) {
    return Status::Corruption("image: inconsistent frame geometry");
  }
  ImageFrameInfo info;
  info.channels = bpp;
  info.width = stride / bpp;
  info.height = raw_size / stride;
  info.lossy = mode == 1;
  info.raw_bytes = raw_size;
  return info;
}

const Codec* GetImageCodec() {
  static const ImageCodec* kCodec = new ImageCodec(/*lossy=*/false);
  return kCodec;
}
const Codec* GetImageLossyCodec() {
  static const ImageCodec* kCodec = new ImageCodec(/*lossy=*/true);
  return kCodec;
}

}  // namespace dl::compress
