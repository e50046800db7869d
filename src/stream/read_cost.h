#ifndef DEEPLAKE_STREAM_READ_COST_H_
#define DEEPLAKE_STREAM_READ_COST_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "util/thread_annotations.h"

namespace dl::stream {

/// Cost of storage reads as a first-byte latency per request plus a time
/// per byte (the inverse bandwidth).
struct ReadCost {
  double latency_us = 0;
  double us_per_byte = 0;

  double Of(uint64_t requests, uint64_t bytes) const {
    return static_cast<double>(requests) * latency_us +
           static_cast<double>(bytes) * us_per_byte;
  }
};

/// The read cost of the storage chain below a dataloader, fitted from the
/// loader's own timed reads: the smallest read's time gives the latency,
/// and the largest one's excess over it gives the bandwidth. Nothing is
/// asked of the store, so any StorageProvider chain works unchanged.
/// Thread-safe.
class ReadCostModel {
 public:
  /// Records one successful read of `bytes` that took `micros`.
  void ObserveRead(uint64_t bytes, int64_t micros) DL_EXCLUDES(mu_);

  /// The fitted cost; nullopt until a small and a large read were seen
  /// (the large one kMinSpread bytes larger than the small one, and 8x
  /// it), so timing noise cannot pass for bandwidth.
  std::optional<ReadCost> Cost() const DL_EXCLUDES(mu_);

  static constexpr uint64_t kMinSpread = 64 * 1024;

 private:
  // One read: its size and the fastest time seen for that size (delays
  // from scheduling only ever add time, so the minimum is the signal).
  struct Point {
    uint64_t bytes = 0;
    int64_t micros = 0;
    bool seen = false;
  };

  mutable Mutex mu_{"stream.read_cost.mu"};
  Point smallest_ DL_GUARDED_BY(mu_);
  Point largest_ DL_GUARDED_BY(mu_);
};

/// Bytes [offset, offset + length) of a storage object.
struct ByteRange {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Groups byte ranges sorted by offset into read runs: a range joins the
/// run before it when reading the gap between them costs less than a new
/// request does.
std::vector<ByteRange> MergeRuns(const std::vector<ByteRange>& ranges,
                                 const ReadCost& cost);

}  // namespace dl::stream

#endif  // DEEPLAKE_STREAM_READ_COST_H_
