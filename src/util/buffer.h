#ifndef DEEPLAKE_UTIL_BUFFER_H_
#define DEEPLAKE_UTIL_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace dl {

// ---------------------------------------------------------------------------
// Copy accounting
// ---------------------------------------------------------------------------

/// Process-wide count of bytes deep-copied through the Buffer/Slice layer
/// (Slice::ToBuffer / ToString, Buffer::CopyOf, Slice::CopyOf). The streaming
/// dataloader and benches report per-epoch deltas of this figure as
/// `loader.bytes_copied` — copy elimination is a first-class win alongside
/// throughput (DESIGN.md §10).
uint64_t TotalBytesCopied();

/// The calling thread's share of TotalBytesCopied(). Scoped deltas of this
/// are what obs::ContextScope charges to a job's ResourceMeter — a global
/// delta would cross-charge whatever other jobs' threads copied meanwhile.
uint64_t ThreadBytesCopied();

namespace internal {
void AddBytesCopied(uint64_t n);
}  // namespace internal

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

class Buffer;

/// Shared ownership handle over an immutable Buffer. Copying a SharedBuffer
/// is a refcount bump, never a byte copy.
using SharedBuffer = std::shared_ptr<const Buffer>;

/// Refcounted, immutable-after-publication byte buffer: the single owner of
/// every chunk / manifest payload on the read path. Producers (stores,
/// codecs) fill a freshly allocated Buffer exactly once, then publish it as
/// a SharedBuffer; from that point all consumers see it through `Slice`
/// views and nobody mutates it (DESIGN.md §10 ownership rules).
class Buffer {
 public:
  /// Adopts the vector's allocation — no byte copy.
  static SharedBuffer FromVector(ByteBuffer bytes);

  /// Deep-copies `v` into a fresh buffer. Counted in TotalBytesCopied().
  static SharedBuffer CopyOf(ByteView v);

  /// Allocates `n` zero-initialized bytes the caller fills through
  /// `mutable_data()` before sharing the result as a SharedBuffer.
  static std::shared_ptr<Buffer> Allocate(size_t n);

  explicit Buffer(ByteBuffer bytes) : bytes_(std::move(bytes)) {}

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }

  /// Only valid while the buffer is exclusively owned (pre-publication).
  uint8_t* mutable_data() { return bytes_.data(); }

 private:
  ByteBuffer bytes_;
};

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

/// Cheap non-owning view into a SharedBuffer plus the keep-alive handle
/// itself: a Slice keeps the bytes it points at alive no matter what happens
/// to the cache entry / chunk / dataset it was sliced from. Copying a Slice
/// is two pointer copies and a refcount bump. Sub-slicing (`subslice`) is
/// free and shares the same keep-alive.
///
/// A default-constructed Slice is empty. A Slice built via `Borrowed` has no
/// keep-alive — the caller guarantees the viewed bytes outlive it (used only
/// for stack-scoped parsing; see DESIGN.md §10 for when borrowing is legal).
class Slice {
 public:
  Slice() = default;

  /// Whole-buffer view.
  Slice(SharedBuffer buffer)  // NOLINT(runtime/explicit)
      : buffer_(std::move(buffer)) {
    if (buffer_ != nullptr) {
      data_ = buffer_->data();
      size_ = buffer_->size();
    }
  }

  /// View of [offset, offset+length) clamped to the buffer's bounds.
  Slice(SharedBuffer buffer, size_t offset, size_t length)
      : Slice(std::move(buffer)) {
    *this = subslice(offset, length);
  }

  /// Adopts a vector's allocation (no byte copy) and views all of it.
  Slice(ByteBuffer&& bytes)  // NOLINT(runtime/explicit)
      : Slice(Buffer::FromVector(std::move(bytes))) {}

  /// Deep copy of `v` into a fresh owning buffer (counted).
  static Slice CopyOf(ByteView v) { return Slice(Buffer::CopyOf(v)); }

  /// Owning copy of UTF-8 text (counted).
  static Slice FromString(std::string_view s) {
    return CopyOf(ByteView(s));
  }

  /// Non-owning borrow: no keep-alive, caller guarantees lifetime. Never
  /// store a borrowed Slice beyond the borrowed bytes' scope.
  static Slice Borrowed(ByteView v) {
    Slice s;
    s.data_ = v.data();
    s.size_ = v.size();
    return s;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Sub-view [offset, offset+len), clamped; shares this slice's keep-alive.
  Slice subslice(size_t offset, size_t len = SIZE_MAX) const {
    Slice out;
    out.buffer_ = buffer_;
    if (offset > size_) offset = size_;
    if (len > size_ - offset) len = size_ - offset;
    out.data_ = data_ + offset;
    out.size_ = len;
    return out;
  }

  ByteView view() const { return ByteView(data_, size_); }
  operator ByteView() const { return view(); }  // NOLINT(runtime/explicit)

  /// True when this slice holds a keep-alive (owns a reference); false for
  /// default-constructed and Borrowed slices.
  bool owned() const { return buffer_ != nullptr; }
  const SharedBuffer& owner() const { return buffer_; }

  /// Deep copies — counted in TotalBytesCopied(). Hot paths should pass the
  /// Slice along instead (scripts/check_source.py flags these in hot dirs).
  ByteBuffer ToBuffer() const {
    internal::AddBytesCopied(size_);
    return ByteBuffer(data_, data_ + size_);
  }
  std::string ToString() const {
    internal::AddBytesCopied(size_);
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  std::string_view ToStringView() const {
    return std::string_view(reinterpret_cast<const char*>(data_), size_);
  }

  friend bool operator==(const Slice& a, const Slice& b) {
    return a.view() == b.view();
  }
  friend bool operator==(const Slice& a, const ByteBuffer& b) {
    return a.view() == ByteView(b);
  }
  friend bool operator==(const ByteBuffer& a, const Slice& b) {
    return ByteView(a) == b.view();
  }

 private:
  SharedBuffer buffer_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

/// Occupancy accounting for decode buffers: chunk decompression fills a
/// fresh buffer and seals it into an owning Slice here; the pool counts the
/// sealed bytes still alive and frees each buffer when its last Slice drops.
/// It keeps no free list: parking released buffers pinned the heap at the
/// largest number of decoded rows ever live at once (DESIGN.md §10).
///
/// Thread-safe. The pool may be destroyed while sealed buffers are still
/// alive: each sealed buffer shares the counters with the pool, so late
/// releases still balance `bytes_in_use`.
class BufferPool {
 public:
  BufferPool();

  /// Wraps a filled buffer into an owning Slice, adopting its allocation
  /// (no copy). The buffer is freed when the last reference drops.
  Slice Seal(ByteBuffer bytes);

  /// Process-wide default pool used by the chunk decode path.
  static BufferPool& Default();

  /// Buffers sealed so far, and the bytes inside sealed buffers whose
  /// Slices are still alive. obs::SampleProcessGauges exports both as
  /// `buffer_pool.*` gauges.
  uint64_t acquires() const;
  uint64_t bytes_in_use() const;

 private:
  struct Counters {
    std::atomic<uint64_t> acquires{0};
    std::atomic<uint64_t> in_use{0};
  };

  std::shared_ptr<Counters> counters_;
};

}  // namespace dl

#endif  // DEEPLAKE_UTIL_BUFFER_H_
