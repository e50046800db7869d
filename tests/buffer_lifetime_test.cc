// Buffer/Slice ownership-lifetime suite (DESIGN.md §10): a Slice is a view
// plus the keep-alive handle for its backing Buffer, so bytes handed out by
// any layer stay valid no matter what happens to the object they were sliced
// from — LRU eviction, key overwrite, dataset close, pool teardown. Run
// under ASan/TSan via scripts/run_sanitizers.sh: every test here turns a
// would-be use-after-free into a visible failure.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "storage/storage.h"
#include "tsf/dataset.h"
#include "util/buffer.h"
#include "util/bytes.h"

namespace dl {
namespace {

using storage::LruCacheStore;
using storage::MemoryStore;

ByteBuffer Patterned(size_t n, uint8_t seed) {
  ByteBuffer b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return b;
}

// ---------------------------------------------------------------------------
// Buffer / Slice / BufferPool unit behaviour
// ---------------------------------------------------------------------------

TEST(BufferTest, FromVectorAdoptsWithoutCopy) {
  uint64_t before = TotalBytesCopied();
  ByteBuffer v = Patterned(4096, 1);
  const uint8_t* raw = v.data();
  SharedBuffer b = Buffer::FromVector(std::move(v));
  EXPECT_EQ(b->data(), raw);  // same allocation
  EXPECT_EQ(TotalBytesCopied(), before);
}

TEST(BufferTest, CopyOfIsCountedDeepCopy) {
  ByteBuffer v = Patterned(4096, 2);
  uint64_t before = TotalBytesCopied();
  SharedBuffer b = Buffer::CopyOf(ByteView(v));
  EXPECT_NE(b->data(), v.data());
  EXPECT_EQ(TotalBytesCopied(), before + 4096);
  EXPECT_EQ(Slice(b), v);
}

TEST(SliceTest, SubsliceSharesKeepAliveAndClamps) {
  Slice whole(Buffer::FromVector(Patterned(100, 3)));
  Slice mid = whole.subslice(10, 20);
  EXPECT_EQ(mid.size(), 20u);
  EXPECT_EQ(mid.owner(), whole.owner());
  EXPECT_EQ(mid[0], whole[10]);
  // Clamped, never out of bounds.
  EXPECT_EQ(whole.subslice(90, 50).size(), 10u);
  EXPECT_EQ(whole.subslice(200, 5).size(), 0u);
  // The subslice alone keeps the buffer alive.
  whole = Slice();
  EXPECT_EQ(mid[5], static_cast<uint8_t>(3 + 15 * 7));
}

TEST(SliceTest, ToBufferAndToStringAreCounted) {
  Slice s(Buffer::FromVector(Patterned(256, 4)));
  uint64_t before = TotalBytesCopied();
  ByteBuffer copy = s.ToBuffer();
  EXPECT_EQ(TotalBytesCopied(), before + 256);
  std::string str = s.ToString();
  EXPECT_EQ(TotalBytesCopied(), before + 512);
  EXPECT_EQ(copy, s);
  EXPECT_EQ(str.size(), 256u);
  // ToStringView is a view, not a copy.
  EXPECT_EQ(s.ToStringView().data(),
            reinterpret_cast<const char*>(s.data()));
  EXPECT_EQ(TotalBytesCopied(), before + 512);
}

TEST(BufferPoolTest, SealedBufferIsFreedOnLastRelease) {
  BufferPool pool;
  ByteBuffer bytes(1000, 0xAA);
  const uint8_t* alloc = bytes.data();
  {
    Slice sealed = pool.Seal(std::move(bytes));
    EXPECT_EQ(sealed.data(), alloc);  // adopted, not copied
    EXPECT_EQ(sealed.size(), 1000u);
    Slice alias = sealed.subslice(10, 20);
    sealed = Slice();
    EXPECT_EQ(pool.bytes_in_use(), 1000u);  // the subslice keeps it alive
    EXPECT_EQ(alias[0], 0xAA);
  }  // last reference drops -> freed, nothing parked
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_EQ(pool.acquires(), 1u);
}

TEST(BufferPoolTest, SealedSliceSurvivesPoolDestruction) {
  Slice survivor;
  {
    BufferPool pool;
    survivor = pool.Seal(Patterned(64, 5));
  }  // pool destroyed first; the sealed buffer's release must not explode
  EXPECT_EQ(survivor.size(), 64u);
  EXPECT_EQ(survivor[1], static_cast<uint8_t>(5 + 7));
}

TEST(BufferPoolTest, DecompressToSliceAccountsLiveBytes) {
  ByteBuffer raw = Patterned(8192, 6);
  auto frame = compress::GetCodec(compress::Compression::kLz77)
                   ->Compress(ByteView(raw), {});
  ASSERT_TRUE(frame.ok());
  BufferPool pool;
  auto s1 = compress::DecompressToSlice(compress::Compression::kLz77,
                                        ByteView(*frame), pool);
  ASSERT_TRUE(s1.ok()) << s1.status();
  EXPECT_EQ(*s1, raw);
  // Decoded into a buffer of exactly the raw size.
  EXPECT_EQ(s1->owner()->size(), raw.size());
  EXPECT_EQ(pool.bytes_in_use(), raw.size());
  auto s2 = compress::DecompressToSlice(compress::Compression::kLz77,
                                        ByteView(*frame), pool);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, raw);
  EXPECT_EQ(pool.bytes_in_use(), 2 * raw.size());
  EXPECT_EQ(pool.acquires(), 2u);
  *s1 = Slice();
  *s2 = Slice();
  EXPECT_EQ(pool.bytes_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Slices outlive the cache entry / stored object they came from
// ---------------------------------------------------------------------------

TEST(BufferLifetimeTest, SliceValidAfterLruEviction) {
  auto base = std::make_shared<MemoryStore>();
  // Capacity fits exactly one of our objects: the second Get evicts the
  // first entry while we still hold a slice into it.
  LruCacheStore cache(base, 1500);
  ByteBuffer a = Patterned(1000, 7);
  ByteBuffer b = Patterned(1000, 8);
  ASSERT_TRUE(base->Put("a", ByteView(a)).ok());
  ASSERT_TRUE(base->Put("b", ByteView(b)).ok());

  auto got_a = cache.Get("a");
  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(cache.Get("b").ok());  // evicts "a" from the cache
  EXPECT_LE(cache.cached_bytes(), 1500u);
  // The evicted entry's bytes are still alive through our keep-alive.
  EXPECT_EQ(*got_a, a);

  // Same for a range slice of a cached entry.
  auto range_b = cache.GetRange("b", 100, 200);
  ASSERT_TRUE(range_b.ok());
  ASSERT_TRUE(cache.Get("a").ok());  // evicts "b"
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_EQ((*range_b)[i], b[100 + i]) << i;
  }
}

TEST(BufferLifetimeTest, SliceValidAfterOverwriteAndDelete) {
  auto store = std::make_shared<MemoryStore>();
  ByteBuffer v1 = Patterned(512, 9);
  ByteBuffer v2 = Patterned(512, 10);
  ASSERT_TRUE(store->Put("k", ByteView(v1)).ok());
  auto old = store->Get("k");
  ASSERT_TRUE(old.ok());
  // Replacing the key installs a fresh buffer; deleting drops the map
  // entry. Neither may touch the bytes our slice pinned.
  ASSERT_TRUE(store->Put("k", ByteView(v2)).ok());
  EXPECT_EQ(*old, v1);
  EXPECT_EQ(*store->Get("k"), v2);
  ASSERT_TRUE(store->Delete("k").ok());
  EXPECT_EQ(*old, v1);
}

TEST(BufferLifetimeTest, SampleValidAfterDatasetClose) {
  auto store = std::make_shared<MemoryStore>();
  tsf::Sample kept;
  ByteBuffer pixels = Patterned(64 * 64 * 3, 11);
  {
    auto ds = tsf::Dataset::Create(store).MoveValue();
    tsf::TensorOptions opts;
    opts.htype = "generic";
    opts.dtype = "uint8";
    ASSERT_TRUE(ds->CreateTensor("x", opts).ok());
    std::map<std::string, tsf::Sample> row;
    row["x"] = tsf::Sample(tsf::DType::kUInt8,
                           tsf::TensorShape{64, 64, 3},
                           Slice::CopyOf(ByteView(pixels)));
    ASSERT_TRUE(ds->Append(row).ok());
    ASSERT_TRUE(ds->Flush().ok());
    auto tensor = ds->GetTensor("x");
    ASSERT_TRUE(tensor.ok());
    auto sample = (*tensor)->Read(0);
    ASSERT_TRUE(sample.ok()) << sample.status();
    kept = std::move(*sample);
  }  // dataset, tensors, chunk caches all destroyed
  store.reset();  // and the store reference too
  ASSERT_EQ(kept.data.size(), pixels.size());
  EXPECT_EQ(kept.data, pixels);
}

TEST(BufferLifetimeTest, ChunkPayloadSlicesOutliveTheChunk) {
  // ReadSample's raw path returns a subslice of the chunk's buffer; the
  // sample must stay valid after the Chunk object is gone.
  tsf::ChunkBuilder builder(tsf::DType::kUInt8,
                            compress::Compression::kNone,
                            compress::Compression::kNone);
  ByteBuffer payload = Patterned(1024, 12);
  ASSERT_TRUE(builder
                  .Append(tsf::Sample(tsf::DType::kUInt8,
                                      tsf::TensorShape{1024},
                                      Slice::CopyOf(ByteView(payload))))
                  .ok());
  ByteBuffer obj = builder.Finish().MoveValue();
  tsf::Sample kept;
  {
    auto chunk = tsf::Chunk::Parse(Slice(std::move(obj)));
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    auto s = chunk->ReadSample(0);
    ASSERT_TRUE(s.ok());
    // Raw htype + no chunk compression: the sample aliases the chunk bytes.
    ASSERT_TRUE(s->data.owned());
    kept = std::move(*s);
  }  // chunk destroyed; kept.data holds the keep-alive
  EXPECT_EQ(kept.data, payload);
}

TEST(BufferLifetimeTest, RawReadPathCopiesNothing) {
  // The tentpole claim, asserted at the unit level: parse a raw chunk and
  // read every sample — TotalBytesCopied must not move.
  tsf::ChunkBuilder builder(tsf::DType::kUInt8,
                            compress::Compression::kNone,
                            compress::Compression::kNone);
  for (int i = 0; i < 8; ++i) {
    ByteBuffer px = Patterned(2048, static_cast<uint8_t>(i));
    ASSERT_TRUE(builder
                    .Append(tsf::Sample(tsf::DType::kUInt8,
                                        tsf::TensorShape{2048},
                                        std::move(px)))
                    .ok());
  }
  ByteBuffer obj = builder.Finish().MoveValue();
  auto chunk = tsf::Chunk::Parse(Slice(std::move(obj)));
  ASSERT_TRUE(chunk.ok());
  uint64_t before = TotalBytesCopied();
  for (int i = 0; i < 8; ++i) {
    auto s = chunk->ReadSample(i);
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(s->data.size(), 2048u);
  }
  EXPECT_EQ(TotalBytesCopied(), before);
}

}  // namespace
}  // namespace dl
