#include "stream/read_cost.h"

#include <algorithm>

namespace dl::stream {

void ReadCostModel::ObserveRead(uint64_t bytes, int64_t micros) {
  MutexLock lock(mu_);
  auto offer = [&](Point& p, bool better_size) {
    if (!p.seen || better_size) {
      p = {bytes, micros, true};
    } else if (bytes == p.bytes) {
      p.micros = std::min(p.micros, micros);
    }
  };
  offer(smallest_, bytes < smallest_.bytes);
  offer(largest_, bytes > largest_.bytes);
}

std::optional<ReadCost> ReadCostModel::Cost() const {
  MutexLock lock(mu_);
  if (!smallest_.seen || largest_.bytes < kMinSpread + smallest_.bytes ||
      largest_.bytes < 8 * smallest_.bytes) {
    return std::nullopt;
  }
  ReadCost cost;
  cost.us_per_byte =
      std::max(0.0, static_cast<double>(largest_.micros - smallest_.micros) /
                        static_cast<double>(largest_.bytes - smallest_.bytes));
  cost.latency_us = std::max(
      0.0, static_cast<double>(smallest_.micros) -
               cost.us_per_byte * static_cast<double>(smallest_.bytes));
  return cost;
}

std::vector<ByteRange> MergeRuns(const std::vector<ByteRange>& ranges,
                                 const ReadCost& cost) {
  std::vector<ByteRange> runs;
  for (const ByteRange& r : ranges) {
    if (!runs.empty()) {
      ByteRange& last = runs.back();
      uint64_t end = last.offset + last.length;
      uint64_t gap = r.offset > end ? r.offset - end : 0;
      if (cost.Of(0, gap) < cost.latency_us) {
        last.length = std::max(end, r.offset + r.length) - last.offset;
        continue;
      }
    }
    runs.push_back(r);
  }
  return runs;
}

}  // namespace dl::stream
