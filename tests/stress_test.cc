// Concurrency stress suite (`ctest -L stress`): hammers the shutdown and
// snapshot paths that only break under contention. Each test is also a TSan
// target — scripts/run_sanitizers.sh runs this binary under
// DEEPLAKE_SANITIZE=thread, where the races these guard against would be
// reported even when the unsanitized run happens to pass.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/network_model.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"

namespace dl {
namespace {

using obs::FlightRecorder;
using obs::MetricsRegistry;
using stream::Batch;
using stream::Dataloader;
using stream::DataloaderOptions;
using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

std::shared_ptr<Dataset> MakeDataset(int n, storage::StoragePtr store) {
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  img.max_chunk_bytes = 1 << 12;  // many small chunks => many work units
  EXPECT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    ByteBuffer pixels(8 * 8 * 3, static_cast<uint8_t>(i % 256));
    std::map<std::string, Sample> row;
    row["images"] =
        Sample(DType::kUInt8, TensorShape{8, 8, 3}, std::move(pixels));
    row["labels"] = Sample::Scalar(i, DType::kInt32);
    EXPECT_TRUE(ds->Append(row).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return ds;
}

// Destroying a Dataloader while its workers are mid-fetch must join them
// cleanly: no use-after-free of the pipeline state, no deadlock on the
// prefetch gate, no worker publishing into a dead loader. The simulated
// store's latency keeps fetches in flight at destruction time.
TEST(StressTest, DataloaderShutdownWhileFetching) {
  auto base = std::make_shared<storage::MemoryStore>();
  auto ds_builder = MakeDataset(400, base);
  sim::NetworkModel slow;
  slow.first_byte_latency_us = 2000;
  auto slow_store = std::make_shared<sim::SimulatedObjectStore>(base, slow);

  for (int iter = 0; iter < 12; ++iter) {
    auto ds = Dataset::Open(slow_store).MoveValue();
    DataloaderOptions opts;
    opts.batch_size = 16;
    opts.num_workers = 4;
    opts.prefetch_units = 4;
    Dataloader loader(ds, opts);
    // Consume a different amount each round so destruction lands at
    // different pipeline states: untouched, mid-stream, near-drained.
    Batch batch;
    for (int k = 0; k < iter % 4; ++k) {
      auto more = loader.Next(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
    }
    // Dtor runs here with workers still fetching through the slow store.
  }
}

// Writers mutate and create instruments while readers snapshot: Get* must
// hand out stable pointers under churn and Snapshot()/SnapshotJson() must
// see a consistent registry, never a half-inserted map node.
TEST(StressTest, MetricsRegistryHammeredDuringSnapshot) {
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 3000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // One shared instrument (contended) plus per-iteration fresh names
        // (map insertion under the registry lock while snapshots run).
        registry.GetCounter("stress.shared")->Increment();
        registry.GetGauge("stress.gauge", {{"writer", std::to_string(w)}})
            ->Set(static_cast<double>(i));
        registry
            .GetHistogram("stress.lat_us",
                          {{"writer", std::to_string(w % 2)}})
            ->Observe(static_cast<double>(i % 97));
        if (i % 64 == 0) {
          registry.GetCounter("stress.churn." + std::to_string(w) + "." +
                              std::to_string(i))
              ->Increment();
        }
      }
    });
  }

  std::thread reader([&registry, &done] {
    uint64_t snapshots = 0;
    // do-while: at least one snapshot even if the writers finish before
    // this thread is first scheduled.
    do {
      auto snap = registry.Snapshot();
      for (const auto& h : snap.histograms) {
        // Bucket rows must always be structurally complete.
        EXPECT_EQ(h.buckets.size(), h.bounds.size() + 1);
      }
      std::string json = registry.SnapshotJson().Dump();
      EXPECT_FALSE(json.empty());
      ++snapshots;
    } while (!done.load(std::memory_order_relaxed));
    EXPECT_GT(snapshots, 0u);
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(registry.GetCounter("stress.shared")->Value(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

// Many threads race Stop() against each other and against the sampler's
// own wakeups: exactly one caller joins, none double-join or deadlock, and
// the recorder always ends fully stopped with a final sample taken.
TEST(StressTest, FlightRecorderStopRacesSampler) {
  MetricsRegistry registry;
  for (int iter = 0; iter < 20; ++iter) {
    FlightRecorder::Options opts;
    opts.interval_us = 200;  // sampler wakes constantly during the race
    FlightRecorder fr(&registry, opts);
    fr.WatchCounter("stress.rows");
    ASSERT_TRUE(fr.Start().ok());

    std::atomic<bool> feeding{true};
    std::thread feeder([&registry, &feeding] {
      while (feeding.load(std::memory_order_relaxed)) {
        registry.GetCounter("stress.rows")->Add(5);
      }
    });

    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&fr] {
        Status s = fr.Stop();
        EXPECT_TRUE(s.ok()) << s;
      });
    }
    for (auto& t : stoppers) t.join();
    feeding.store(false, std::memory_order_relaxed);
    feeder.join();

    EXPECT_FALSE(fr.running());
    // Stop() takes a final sample, so the series is never empty.
    EXPECT_FALSE(fr.Samples().empty());
    // Idempotent after the race settles.
    EXPECT_TRUE(fr.Stop().ok());
    // Restartable: the stopped recorder is reusable, not wedged.
    ASSERT_TRUE(fr.Start().ok());
    ASSERT_TRUE(fr.Stop().ok());
  }
}

// Readers hold Slices into cached entries while a writer churns the cache
// hard enough to evict everything between any two reads. A slice pinned
// before eviction must keep its bytes — under TSan this catches entry
// buffers being mutated in place, under ASan a freed-entry read. The
// per-key checksum makes silent corruption visible even unsanitized.
TEST(StressTest, EvictWhileSlicingKeepsPinnedBytesAlive) {
  constexpr int kKeys = 32;
  constexpr size_t kObjBytes = 4096;
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 2000;
  // Capacity holds only ~4 objects, so concurrent readers + the writer
  // force constant eviction of entries other threads just pinned.
  auto base = std::make_shared<storage::MemoryStore>();
  storage::LruCacheStore cache(base, 4 * kObjBytes + kObjBytes / 2);
  const uint64_t misses0 = cache.misses();  // shared per-label counter

  auto value_for = [](int key, int version) {
    ByteBuffer b(kObjBytes);
    for (size_t i = 0; i < kObjBytes; ++i) {
      b[i] = static_cast<uint8_t>(key * 31 + version * 7 + i);
    }
    return b;
  };
  // Seed version 0 of every key.
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(
        base->Put("obj/" + std::to_string(k), ByteView(value_for(k, 0))).ok());
  }

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> writes{0};
  // The writer overwrites keys through the cache (invalidate + evict churn).
  // A slice's first byte encodes (key, version); the rest must match that
  // version exactly — torn reads or recycled buffers break the pattern.
  std::thread writer([&] {
    int version = 1;
    while (writing.load(std::memory_order_relaxed)) {
      for (int k = 0; k < kKeys && writing.load(std::memory_order_relaxed);
           ++k) {
        Status s =
            cache.Put("obj/" + std::to_string(k), ByteView(value_for(k, version)));
        ASSERT_TRUE(s.ok()) << s;
        writes.fetch_add(1, std::memory_order_relaxed);
      }
      ++version;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      std::vector<Slice> pinned;  // slices deliberately held across evictions
      for (int i = 0; i < kReadsPerReader; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        int key = static_cast<int>((rng >> 33) % kKeys);
        auto got = cache.Get("obj/" + std::to_string(key));
        ASSERT_TRUE(got.ok()) << got.status();
        // Subslice into the middle, then verify against the full slice: both
        // views must agree with one self-consistent (key, version) pattern.
        Slice mid = got->subslice(kObjBytes / 2, 256);
        uint8_t base_byte = (*got)[0];  // key*31 + version*7 + 0
        for (size_t j = 0; j < kObjBytes; ++j) {
          ASSERT_EQ((*got)[j], static_cast<uint8_t>(base_byte + j))
              << "key " << key << " byte " << j;
        }
        for (size_t j = 0; j < mid.size(); ++j) {
          ASSERT_EQ(mid[j], static_cast<uint8_t>(base_byte + kObjBytes / 2 + j));
        }
        pinned.push_back(std::move(mid));
        if (pinned.size() > 64) {
          // Re-verify the oldest pinned slice long after its entry was
          // certainly evicted/overwritten, then release it.
          const Slice& old = pinned.front();
          uint8_t b0 = old[0];
          for (size_t j = 0; j < old.size(); ++j) {
            ASSERT_EQ(old[j], static_cast<uint8_t>(b0 + j));
          }
          pinned.erase(pinned.begin());
        }
      }
    });
  }

  for (auto& t : readers) t.join();
  writing.store(false, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(writes.load(), 0u);
  // Capacity ~4 objects across 32 hot keys: re-reads of evicted keys must
  // have missed, i.e. eviction actually happened under the readers.
  EXPECT_GT(cache.misses() - misses0, static_cast<uint64_t>(kKeys));
  EXPECT_LE(cache.cached_bytes(), 4 * kObjBytes + kObjBytes / 2);
}

}  // namespace
}  // namespace dl
