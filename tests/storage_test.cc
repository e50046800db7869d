// Tests for storage providers: Memory, Posix, LRU cache, fault injection,
// and the contract every decorator keeps with what it wraps. The same
// behavioural suite runs against every provider via a parameterized fixture
// (paper §3.6: format is provider-agnostic).

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/network_model.h"
#include "storage/storage.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dl::storage {
namespace {

using Factory = std::function<StoragePtr()>;

StoragePtr MakePosix() {
  static int counter = 0;
  std::string dir = std::filesystem::temp_directory_path() /
                    ("dl_storage_test_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return std::make_shared<PosixStore>(dir);
}

struct ProviderCase {
  std::string label;
  Factory factory;
};

class StorageProviderTest : public ::testing::TestWithParam<ProviderCase> {
 protected:
  void SetUp() override { store_ = GetParam().factory(); }
  StoragePtr store_;
};

TEST_P(StorageProviderTest, PutGetRoundTrip) {
  ByteBuffer value = BufferFromString("tensor chunk payload");
  ASSERT_TRUE(store_->Put("tensors/images/chunks/c0", ByteView(value)).ok());
  auto got = store_->Get("tensors/images/chunks/c0");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, value);
}

TEST_P(StorageProviderTest, GetMissingIsNotFound) {
  EXPECT_TRUE(store_->Get("nope").status().IsNotFound());
  EXPECT_TRUE(store_->SizeOf("nope").status().IsNotFound());
  EXPECT_FALSE(*store_->Exists("nope"));
}

TEST_P(StorageProviderTest, OverwriteReplaces) {
  ASSERT_TRUE(store_->Put("k", ByteView(std::string_view("v1"))).ok());
  ASSERT_TRUE(store_->Put("k", ByteView(std::string_view("value2"))).ok());
  EXPECT_EQ(store_->Get("k")->size(), 6u);
  EXPECT_EQ(*store_->SizeOf("k"), 6u);
}

TEST_P(StorageProviderTest, RangeReads) {
  ByteBuffer value = BufferFromString("0123456789");
  ASSERT_TRUE(store_->Put("obj", ByteView(value)).ok());
  EXPECT_EQ(store_->GetRange("obj", 2, 3)->size(), 3u);
  EXPECT_EQ(ByteView(*store_->GetRange("obj", 2, 3)).ToString(), "234");
  // Length clamped to the object end.
  EXPECT_EQ(ByteView(*store_->GetRange("obj", 8, 100)).ToString(), "89");
  // Start past the end is OutOfRange.
  EXPECT_TRUE(store_->GetRange("obj", 11, 1).status().IsOutOfRange());
  // Empty range at the exact end is fine.
  EXPECT_EQ(store_->GetRange("obj", 10, 5)->size(), 0u);
}

TEST_P(StorageProviderTest, DeleteRemoves) {
  ASSERT_TRUE(store_->Put("k", ByteView(std::string_view("v"))).ok());
  ASSERT_TRUE(*store_->Exists("k"));
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_FALSE(*store_->Exists("k"));
  // Deleting a missing key is idempotent.
  EXPECT_TRUE(store_->Delete("k").ok());
}

TEST_P(StorageProviderTest, ListPrefixSorted) {
  for (const char* k : {"t/a/c1", "t/a/c0", "t/b/c0", "u/x"}) {
    ASSERT_TRUE(store_->Put(k, ByteView(std::string_view("x"))).ok());
  }
  auto keys = store_->ListPrefix("t/");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 3u);
  EXPECT_EQ((*keys)[0], "t/a/c0");
  EXPECT_EQ((*keys)[1], "t/a/c1");
  EXPECT_EQ((*keys)[2], "t/b/c0");
  auto all = store_->ListPrefix("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);
}

TEST_P(StorageProviderTest, EmptyValueOk) {
  ASSERT_TRUE(store_->Put("empty", ByteView()).ok());
  EXPECT_EQ(store_->Get("empty")->size(), 0u);
  EXPECT_EQ(*store_->SizeOf("empty"), 0u);
}

TEST_P(StorageProviderTest, LargeBinaryRoundTrip) {
  Rng rng(11);
  ByteBuffer value(1 << 20);
  for (auto& b : value) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE(store_->Put("big", ByteView(value)).ok());
  EXPECT_EQ(*store_->Get("big"), value);
  auto mid = store_->GetRange("big", 500000, 1024);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(ByteView(*mid),
            ByteView(value.data() + 500000, 1024));
}

TEST_P(StorageProviderTest, ConcurrentReadersAndWriters) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "c/" + std::to_string(t) + "/" + std::to_string(i);
        std::string val = "value-" + key;
        if (!store_->Put(key, ByteView(std::string_view(val))).ok()) {
          failures++;
          continue;
        }
        auto got = store_->Get(key);
        if (!got.ok() || ByteView(*got).ToString() != val) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Providers, StorageProviderTest,
    ::testing::Values(
        ProviderCase{"memory", [] { return std::make_shared<MemoryStore>(); }},
        ProviderCase{"posix", MakePosix},
        ProviderCase{"lru",
                     [] {
                       return std::make_shared<LruCacheStore>(
                           std::make_shared<MemoryStore>(), 64 << 20);
                     }}),
    [](const ::testing::TestParamInfo<ProviderCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// LRU-specific behaviour
// ---------------------------------------------------------------------------

TEST(LruCacheStoreTest, ServesHitsWithoutBase) {
  auto base = std::make_shared<InstrumentedStore>(
      std::make_shared<MemoryStore>(), "storage_test.lru_hits_base");
  LruCacheStore cache(base, 1 << 20);
  ASSERT_TRUE(cache.Put("k", ByteView(std::string_view("v"))).ok());
  uint64_t base_gets_before = base->gets();
  uint64_t hits_before = cache.hits();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.Get("k").ok());
  EXPECT_EQ(base->gets(), base_gets_before);
  EXPECT_EQ(cache.hits(), hits_before + 5);
}

TEST(LruCacheStoreTest, EvictsLeastRecentlyUsed) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, 300);
  ByteBuffer blob(100, 0xAB);
  ASSERT_TRUE(cache.Put("a", ByteView(blob)).ok());
  ASSERT_TRUE(cache.Put("b", ByteView(blob)).ok());
  ASSERT_TRUE(cache.Put("c", ByteView(blob)).ok());
  // Touch "a" so "b" becomes the LRU victim.
  ASSERT_TRUE(cache.Get("a").ok());
  ASSERT_TRUE(cache.Put("d", ByteView(blob)).ok());  // evicts b
  EXPECT_LE(cache.cached_bytes(), 300u);
  uint64_t misses_before = cache.misses();
  ASSERT_TRUE(cache.Get("b").ok());  // must go to base
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(LruCacheStoreTest, CachedRangeReadTouchesNoBackend) {
  // Regression: GetRange on a cached key used to bypass the cache and hit
  // the base store even though every requested byte was already resident.
  // It must now be served as a zero-copy slice of the cached entry.
  auto base = std::make_shared<InstrumentedStore>(
      std::make_shared<MemoryStore>(), "storage_test.lru_range_base");
  LruCacheStore cache(base, 1 << 20);
  ByteBuffer blob(1000);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(cache.Put("k", ByteView(blob)).ok());

  uint64_t base_gets = base->gets();
  uint64_t base_ranges = base->get_ranges();
  uint64_t bypasses = cache.range_bypasses();
  uint64_t hits = cache.hits();

  auto r = cache.GetRange("k", 100, 50);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ((*r)[i], static_cast<uint8_t>(100 + i));
  }
  // Zero backend I/O: neither a Get nor a GetRange reached the base store.
  EXPECT_EQ(base->gets(), base_gets);
  EXPECT_EQ(base->get_ranges(), base_ranges);
  EXPECT_EQ(cache.range_bypasses(), bypasses);  // not counted as a bypass
  EXPECT_EQ(cache.hits(), hits + 1);            // counted as a hit
  // The slice aliases the cached entry's buffer rather than copying it.
  ASSERT_TRUE(r->owned());
  EXPECT_EQ(r->owner()->size(), blob.size());

  // A range on an uncached key still goes to the base (the bypass path).
  ASSERT_TRUE(base->Put("cold", ByteView(blob)).ok());
  auto cold = cache.GetRange("cold", 0, 10);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cache.range_bypasses(), bypasses + 1);
}

TEST(LruCacheStoreTest, ShortLivedChainsDoNotGrowTheRegistry) {
  // Retry and LRU series are labeled by layer, not by instance: rebuilding
  // the same chain reuses its series instead of leaking new ones.
  auto& registry = obs::MetricsRegistry::Global();
  auto series = [&registry] {
    obs::RegistrySnapshot snap = registry.Snapshot();
    return snap.counters.size() + snap.gauges.size() +
           snap.histograms.size();
  };
  auto base = std::make_shared<MemoryStore>();
  auto chain = [&base] {
    return std::make_shared<LruCacheStore>(
        std::make_shared<RetryingStore>(base), 1 << 20);
  };
  obs::Gauge* cached = registry.GetGauge(
      "storage.lru.cached_bytes", {{"cache", chain()->name()}});
  const double cached0 = cached->Value();
  auto first = chain();
  ASSERT_TRUE(first->Put("k", ByteView(std::string_view("vv"))).ok());
  const size_t series_after_first = series();
  for (int i = 0; i < 99; ++i) {
    auto next = chain();
    ASSERT_TRUE(next->Put("k", ByteView(std::string_view("vvv"))).ok());
    ASSERT_TRUE(next->Get("k").ok());
    // Caches sharing a label sum into one gauge.
    EXPECT_EQ(cached->Value(), cached0 + 2 + 3);
  }
  EXPECT_EQ(series(), series_after_first);
  // Each destroyed cache took its bytes back out of the shared gauge.
  EXPECT_EQ(cached->Value(), cached0 + 2);
  first.reset();
  EXPECT_EQ(cached->Value(), cached0);
}

TEST(LruCacheStoreTest, OversizeObjectsBypassCache) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, 10);
  ByteBuffer blob(100, 1);
  ASSERT_TRUE(cache.Put("big", ByteView(blob)).ok());
  EXPECT_EQ(cache.cached_bytes(), 0u);
  EXPECT_EQ(cache.Get("big")->size(), 100u);
}

TEST(LruCacheStoreTest, DeleteInvalidates) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, 1 << 20);
  ASSERT_TRUE(cache.Put("k", ByteView(std::string_view("v"))).ok());
  ASSERT_TRUE(cache.Delete("k").ok());
  EXPECT_TRUE(cache.Get("k").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjectionStoreTest, FailsEveryNth) {
  auto base = std::make_shared<MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  FaultInjectionStore faulty(base, 3);
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!faulty.Get("k").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
}

// ---------------------------------------------------------------------------
// PosixStore atomic writes and delete errors (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(PosixStoreTest, AtomicWritesLeaveNoTempResidue) {
  auto store = MakePosix();
  ByteBuffer value = BufferFromString("durable manifest bytes");
  ASSERT_TRUE(store->Put("a/b/plain", ByteView(value)).ok());
  ASSERT_TRUE(store->PutDurable("a/b/durable", ByteView(value)).ok());
  // Overwrites go through the same temp+rename path.
  ASSERT_TRUE(store->PutDurable("a/b/durable", ByteView(value)).ok());
  auto keys = store->ListPrefix("");
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(keys->size(), 2u);
  for (const auto& k : *keys) {
    EXPECT_EQ(k.find(".dltmp."), std::string::npos) << k;
  }
  EXPECT_EQ(*store->Get("a/b/durable"), value);
}

/// One factory per decorator kind, so the contract checks below cover every
/// provider that wraps another.
std::vector<std::pair<std::string, std::function<StoragePtr(StoragePtr)>>>
Decorators() {
  return {
      {"lru",
       [](StoragePtr b) { return std::make_shared<LruCacheStore>(b, 1 << 20); }},
      {"faulty",
       [](StoragePtr b) {
         return std::make_shared<FaultInjectionStore>(b, uint64_t{1} << 30);
       }},
      {"retry", [](StoragePtr b) { return std::make_shared<RetryingStore>(b); }},
      {"instrumented",
       [](StoragePtr b) {
         return std::make_shared<InstrumentedStore>(b, "storage_test.contract");
       }},
      {"crash",
       [](StoragePtr b) {
         return std::make_shared<CrashPointStore>(b, 0, CrashMode::kMissing);
       }},
      {"sim",
       [](StoragePtr b) {
         return std::make_shared<sim::SimulatedObjectStore>(
             b, sim::NetworkModel{});  // zero latency
       }},
  };
}

TEST(PosixStoreTest, AdvertisesAtomicDurablePuts) {
  // VersionControl keys its journaled-commit guarantees off this bit: the
  // posix path is rename-atomic, the plain memory store is not.
  EXPECT_TRUE(MakePosix()->atomic_durable_puts());
  EXPECT_FALSE(std::make_shared<MemoryStore>()->atomic_durable_puts());
  // Decorators must forward the capability of whatever they wrap...
  for (const auto& [label, decorate] : Decorators()) {
    EXPECT_TRUE(decorate(MakePosix())->atomic_durable_puts()) << label;
    EXPECT_FALSE(decorate(std::make_shared<MemoryStore>())
                     ->atomic_durable_puts())
        << label;
  }
  // ...and Invalidate down the chain, or a cache beneath them pins a
  // corrupt entry that GetVerified can never evict.
  for (const auto& [label, decorate] : Decorators()) {
    auto cache = std::make_shared<LruCacheStore>(MakePosix(), 1 << 20);
    ASSERT_TRUE(cache->Put("k", ByteView(std::string_view("v"))).ok());
    ASSERT_GT(cache->cached_bytes(), 0u);
    decorate(cache)->Invalidate("k");
    EXPECT_EQ(cache->cached_bytes(), 0u) << label;
  }
}

TEST(PosixStoreTest, DeleteMissingIsIdempotentButRealErrorsSurface) {
  auto store = MakePosix();
  // Deleting what is not there is success (idempotent cleanup paths).
  EXPECT_TRUE(store->Delete("never/existed").ok());
  // Deleting a non-empty directory is a real failure and must say why —
  // this used to be swallowed as success.
  ASSERT_TRUE(store->Put("dir/child", ByteView(std::string_view("v"))).ok());
  Status s = store->Delete("dir");
  EXPECT_TRUE(s.IsIOError()) << s;
  EXPECT_NE(s.message().find("dir"), std::string::npos) << s;
  // The child is untouched.
  EXPECT_TRUE(*store->Exists("dir/child"));
}

// ---------------------------------------------------------------------------
// Chaining: LRU in front of retry in front of posix (paper §3.6 chain)
// ---------------------------------------------------------------------------

TEST(ChainingTest, FullChainRoundTrip) {
  auto posix = MakePosix();
  auto retry = std::make_shared<RetryingStore>(posix);
  auto cache = std::make_shared<LruCacheStore>(retry, 1 << 20);
  ByteBuffer value = BufferFromString("chained payload");
  ASSERT_TRUE(cache->Put("t/chunk0", ByteView(value)).ok());
  EXPECT_EQ(*cache->Get("t/chunk0"), value);
  // The object actually lives on the posix store at the bottom.
  EXPECT_EQ(*posix->Get("t/chunk0"), value);
}

}  // namespace
}  // namespace dl::storage
