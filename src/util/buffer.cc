#include "util/buffer.h"

namespace dl {

namespace {
std::atomic<uint64_t> g_bytes_copied{0};
thread_local uint64_t t_bytes_copied = 0;
}  // namespace

uint64_t TotalBytesCopied() {
  return g_bytes_copied.load(std::memory_order_relaxed);
}

uint64_t ThreadBytesCopied() { return t_bytes_copied; }

namespace internal {
void AddBytesCopied(uint64_t n) {
  if (n > 0) {
    g_bytes_copied.fetch_add(n, std::memory_order_relaxed);
    // Per-thread tally so obs::ContextScope can attribute copies to the
    // installed job without cross-charging concurrent jobs' threads.
    t_bytes_copied += n;
  }
}
}  // namespace internal

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

SharedBuffer Buffer::FromVector(ByteBuffer bytes) {
  return std::make_shared<Buffer>(std::move(bytes));
}

SharedBuffer Buffer::CopyOf(ByteView v) {
  internal::AddBytesCopied(v.size());
  return std::make_shared<Buffer>(ByteBuffer(v.begin(), v.end()));
}

std::shared_ptr<Buffer> Buffer::Allocate(size_t n) {
  return std::make_shared<Buffer>(ByteBuffer(n));
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool() : counters_(std::make_shared<Counters>()) {}

Slice BufferPool::Seal(ByteBuffer bytes) {
  const uint64_t sealed_size = bytes.size();
  counters_->acquires.fetch_add(1, std::memory_order_relaxed);
  counters_->in_use.fetch_add(sealed_size, std::memory_order_relaxed);
  auto deleter = [counters = counters_, sealed_size](Buffer* b) {
    std::unique_ptr<Buffer> owned(b);
    counters->in_use.fetch_sub(sealed_size, std::memory_order_relaxed);
  };
  return Slice(SharedBuffer(
      std::shared_ptr<Buffer>(new Buffer(std::move(bytes)), deleter)));
}

BufferPool& BufferPool::Default() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

uint64_t BufferPool::acquires() const {
  return counters_->acquires.load(std::memory_order_relaxed);
}

uint64_t BufferPool::bytes_in_use() const {
  return counters_->in_use.load(std::memory_order_relaxed);
}

}  // namespace dl
