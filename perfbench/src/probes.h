// Measurement probes the benchmark places around the library from outside:
// a storage probe (a forwarding StorageProvider) and a codec probe.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <memory>
#include <string>

#include "storage/storage.h"
#include "tsf/tensor.h"

namespace perfbench {

/// Counts every data operation, records a span around every operation (its
/// timing, when tracing is on) and forwards every virtual of
/// StorageProvider — PutDurable, atomic_durable_puts and Invalidate too —
/// so the durability and cache behaviour of the chain it sits in is
/// unchanged. One probe sits above the simulated network and one below it;
/// the difference of their read times is the time spent in the network
/// model.
///
/// The probe can also inject faults for the benchmark's own tests (a
/// failed read every `fail_every` reads, or one flipped byte in reads of
/// keys containing `flip_key`). Faults fire only while armed.
class ProbeStore : public dl::storage::StorageProvider {
 public:
  enum class Layer { kUpper, kLower };

  struct Counters {
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> get_ranges{0};
    std::atomic<uint64_t> chunk_reads{0};  // Get/GetRange of chunk objects
    std::atomic<uint64_t> puts{0};         // Put and PutDurable
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> bytes_written{0};
  };

  ProbeStore(dl::storage::StoragePtr base, Layer layer);

  dl::Result<dl::Slice> Get(std::string_view key) override;
  dl::Result<dl::Slice> GetRange(std::string_view key, uint64_t offset,
                                 uint64_t length) override;
  dl::Status Put(std::string_view key, dl::ByteView value) override;
  dl::Status PutDurable(std::string_view key, dl::ByteView value) override;
  bool atomic_durable_puts() const override {
    return base_->atomic_durable_puts();
  }
  void Invalidate(std::string_view key) override { base_->Invalidate(key); }
  dl::Status Delete(std::string_view key) override;
  dl::Result<bool> Exists(std::string_view key) override;
  dl::Result<uint64_t> SizeOf(std::string_view key) override;
  dl::Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override {
    return "probe(" + base_->name() + ")";
  }

  const Counters& counters() const { return counters_; }
  void ResetCounters();

  void ArmFaults(uint64_t fail_every, std::string flip_key);
  void DisarmFaults() { armed_.store(false); }

 private:
  dl::Result<dl::Slice> Read(std::string_view key, bool ranged,
                             uint64_t offset, uint64_t length);
  dl::Status Write(std::string_view key, dl::ByteView value, bool durable);
  template <typename T>
  T CountErrors(T result);

  dl::storage::StoragePtr base_;
  Layer layer_;
  Counters counters_;
  std::atomic<bool> armed_{false};
  uint64_t fail_every_ = 0;
  std::string flip_key_;
  std::atomic<uint64_t> armed_reads_{0};
};

/// Codec costs per image frame, in microseconds.
struct CodecTimes {
  double lz77_decode_us = 0;
  double unfilter_us = 0;  // image decode minus its LZ77 stage
  double image_encode_us = 0;
  /// Frames a stage failed on in the last pass; they are left out.
  size_t skipped_frames = 0;
};

/// Times the public codec entry points on up to `max_frames` stored image
/// frames of `images` (a sample-compressed image tensor): DecompressBytes
/// of the whole frame, DecompressBytes of its embedded LZ77 stream (found
/// with the varint decoders of util/coding.h), and CompressBytes of the
/// decoded pixels. The times are zero when no frame went through every
/// stage.
CodecTimes ProbeCodec(dl::tsf::Tensor& images, size_t max_frames);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
