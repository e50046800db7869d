// Dataloader tests: ordering, completeness, shuffling, view streaming,
// transforms, collation, prefetch behaviour over slow stores, error
// propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "sim/network_model.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "stream/read_cost.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "util/clock.h"

namespace dl::stream {
namespace {

using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

/// Dataset where labels[i] == i, images are small uniform tensors whose
/// first byte equals i % 256 (so rows are verifiable).
std::shared_ptr<Dataset> MakeDataset(int n, storage::StoragePtr store,
                                     uint64_t chunk_bytes = 1 << 16) {
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  img.max_chunk_bytes = chunk_bytes;
  EXPECT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    ByteBuffer pixels(16 * 16 * 3, static_cast<uint8_t>(i % 256));
    std::map<std::string, Sample> row;
    row["images"] = Sample(DType::kUInt8, TensorShape{16, 16, 3},
                           std::move(pixels));
    row["labels"] = Sample::Scalar(i, DType::kInt32);
    EXPECT_TRUE(ds->Append(row).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return ds;
}

std::vector<int> DrainLabels(Dataloader& loader) {
  std::vector<int> labels;
  Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    for (const auto& s : batch.columns.at("labels")) {
      labels.push_back(static_cast<int>(s.AsInt()));
    }
  }
  return labels;
}

TEST(DataloaderTest, SequentialOrderAndCompleteness) {
  auto ds = MakeDataset(100, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 7;
  opts.num_workers = 4;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(labels[i], i);
  EXPECT_EQ(loader.stats().rows_delivered, 100u);
  EXPECT_EQ(loader.stats().batches_delivered, 15u);  // 14 full + 1 of 2
}

TEST(DataloaderTest, RowsCarryMatchingCells) {
  auto ds = MakeDataset(50, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 8;
  Dataloader loader(ds, opts);
  Batch batch;
  int row = 0;
  while (*loader.Next(&batch)) {
    for (uint64_t i = 0; i < batch.size; ++i) {
      int label = static_cast<int>(batch.columns.at("labels")[i].AsInt());
      EXPECT_EQ(batch.columns.at("images")[i].data[0],
                static_cast<uint8_t>(label % 256));
      ++row;
    }
  }
  EXPECT_EQ(row, 50);
}

TEST(DataloaderTest, DropLastSkipsPartialBatch) {
  auto ds = MakeDataset(10, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 4;
  opts.drop_last = true;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  EXPECT_EQ(labels.size(), 8u);
}

TEST(DataloaderTest, ShuffleIsAPermutationAndShuffled) {
  auto ds = MakeDataset(200, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/8 * 1024);
  DataloaderOptions opts;
  opts.batch_size = 16;
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 64;
  opts.seed = 123;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 200u);
  std::set<int> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), 200u);  // a permutation
  // Not the identity: mean displacement is large.
  double displacement = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    displacement += std::abs(static_cast<double>(labels[i]) - i);
  }
  displacement /= labels.size();
  EXPECT_GT(displacement, 10.0);
}

TEST(DataloaderTest, UnitsCountedInBothModes) {
  auto ds = MakeDataset(200, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/8 * 1024);
  DataloaderOptions opts;
  opts.batch_size = 16;
  Dataloader sequential(ds, opts);
  ASSERT_EQ(DrainLabels(sequential).size(), 200u);
  const uint64_t units = sequential.stats().units;
  EXPECT_GT(units, 1u);
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 64;
  Dataloader shuffled(ds, opts);
  ASSERT_EQ(DrainLabels(shuffled).size(), 200u);
  // Same chunk-aligned plan, visited in another order.
  EXPECT_EQ(shuffled.stats().units, units);
}

TEST(DataloaderTest, ShuffleSeedsDiffer) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = MakeDataset(100, store, 8 * 1024);
  auto run = [&](uint64_t seed) {
    DataloaderOptions opts;
    opts.batch_size = 10;
    opts.shuffle = true;
    opts.seed = seed;
    // A single worker makes reservoir arrival order deterministic; with
    // many workers the stream is still seed-driven but racy in arrival.
    opts.num_workers = 1;
    Dataloader loader(ds, opts);
    return DrainLabels(loader);
  };
  auto a = run(1);
  auto c = run(2);
  // Like PyTorch's multi-worker loader, exact order is timing-dependent;
  // but different seeds must give different chunk visit orders, and both
  // streams must be complete permutations.
  EXPECT_NE(a, c);
  std::set<int> ua(a.begin(), a.end()), uc(c.begin(), c.end());
  EXPECT_EQ(ua.size(), 100u);
  EXPECT_EQ(uc.size(), 100u);
}

TEST(DataloaderTest, StreamsQueryViewInViewOrder) {
  auto ds = MakeDataset(60, std::make_shared<storage::MemoryStore>());
  auto view = tql::RunQuery(
      ds, "SELECT * FROM ds WHERE labels % 3 = 0 ORDER BY labels DESC");
  ASSERT_TRUE(view.ok()) << view.status();
  DataloaderOptions opts;
  opts.batch_size = 5;
  Dataloader loader(ds, *view, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 20u);
  EXPECT_EQ(labels.front(), 57);
  EXPECT_EQ(labels.back(), 0);
  for (size_t i = 1; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i - 1] - labels[i], 3);
  }
}

TEST(DataloaderTest, TransformRunsPerRow) {
  auto ds = MakeDataset(30, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 10;
  opts.transform = [](Row& row) {
    // Double the label; downsize the image to 2x2x3.
    int v = static_cast<int>(row["labels"].AsInt());
    row["labels"] = Sample::Scalar(v * 2, DType::kInt32);
    row["images"] =
        Sample(DType::kUInt8, TensorShape{2, 2, 3},
               ByteBuffer(12, row["images"].data.empty()
                                  ? 0
                                  : row["images"].data[0]));
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(labels[i], 2 * i);
}

TEST(DataloaderTest, TransformErrorSurfacesAndStops) {
  auto ds = MakeDataset(40, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 8;
  opts.transform = [](Row& row) {
    if (row["labels"].AsInt() == 13) {
      return Status::InvalidArgument("bad sample 13");
    }
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  Batch batch;
  Status seen;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) {
      seen = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(seen.IsInvalidArgument());
}

TEST(DataloaderTest, StackedCollation) {
  auto ds = MakeDataset(12, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 12;
  Dataloader loader(ds, opts);
  Batch batch;
  ASSERT_TRUE(*loader.Next(&batch));
  auto stacked = batch.Stacked("images");
  ASSERT_TRUE(stacked.ok()) << stacked.status();
  EXPECT_EQ(stacked->shape, (TensorShape{12, 16, 16, 3}));
  EXPECT_EQ(stacked->data.size(), 12u * 16 * 16 * 3);
  // Batch-major layout: row i's block leads with its label byte.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(stacked->data[i * 16 * 16 * 3], static_cast<uint8_t>(i));
  }
  auto labels = batch.Stacked("labels");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(labels->shape, (TensorShape{12}));
}

TEST(DataloaderTest, StackedRejectsRagged) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  ASSERT_TRUE(ds->CreateTensor("images", img).ok());
  for (int i = 0; i < 4; ++i) {
    uint64_t side = 8 + i;
    ASSERT_TRUE(ds->Append({{"images",
                             Sample(DType::kUInt8,
                                    TensorShape{side, side, 3},
                                    ByteBuffer(side * side * 3, 1))}})
                    .ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  DataloaderOptions opts;
  opts.batch_size = 4;
  Dataloader loader(ds, opts);
  Batch batch;
  ASSERT_TRUE(*loader.Next(&batch));
  EXPECT_TRUE(batch.Stacked("images").status().IsFailedPrecondition());
}

TEST(DataloaderTest, PrefetchHidesStorageLatency) {
  // Same dataset behind a slow simulated store: with parallel workers +
  // prefetch, total wall time approaches (num_chunks/workers) * latency,
  // far below serial chunk-by-chunk latency.
  auto mem = std::make_shared<storage::MemoryStore>();
  auto ds_local = MakeDataset(64, mem, /*chunk_bytes=*/4 * 1024);
  sim::NetworkModel model;
  model.label = "slow";
  model.first_byte_latency_us = 12000;
  model.bandwidth_bytes_per_sec = 1e9;
  model.max_concurrent_requests = 32;
  auto slow = std::make_shared<sim::SimulatedObjectStore>(mem, model);
  auto ds = Dataset::Open(slow).MoveValue();

  auto run = [&](size_t workers, size_t prefetch) {
    DataloaderOptions opts;
    opts.batch_size = 16;
    opts.num_workers = workers;
    opts.prefetch_units = prefetch;
    Dataloader loader(ds, opts);
    Stopwatch sw;
    std::vector<int> labels = DrainLabels(loader);
    EXPECT_EQ(labels.size(), 64u);
    return sw.ElapsedMicros();
  };
  int64_t serial = run(1, 1);
  int64_t parallel = run(8, 16);
  EXPECT_LT(parallel * 2, serial);
}

TEST(DataloaderTest, StorageErrorsPropagate) {
  auto mem = std::make_shared<storage::MemoryStore>();
  auto ds_writer = MakeDataset(40, mem, 4 * 1024);
  auto faulty = std::make_shared<storage::FaultInjectionStore>(mem, 5);
  auto ds = Dataset::Open(faulty);
  if (!ds.ok()) return;  // open itself may hit the fault — fine
  DataloaderOptions opts;
  opts.batch_size = 8;
  Dataloader loader(*ds, opts);
  Batch batch;
  bool saw_error = false;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) {
      EXPECT_TRUE(more.status().IsIOError());
      saw_error = true;
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(saw_error);
}

TEST(DataloaderTest, EmptyDatasetEndsImmediately) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = Dataset::Create(store).MoveValue();
  ASSERT_TRUE(ds->CreateTensor("x", {}).ok());
  ASSERT_TRUE(ds->Flush().ok());
  DataloaderOptions opts;
  Dataloader loader(ds, opts);
  Batch batch;
  auto more = loader.Next(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(DataloaderTest, SelectedTensorsOnly) {
  auto ds = MakeDataset(10, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 10;
  opts.tensors = {"labels"};
  Dataloader loader(ds, opts);
  Batch batch;
  ASSERT_TRUE(*loader.Next(&batch));
  EXPECT_EQ(batch.columns.count("images"), 0u);
  EXPECT_EQ(batch.columns.at("labels").size(), 10u);
}

/// Appends rows [first, first + n) shaped like MakeDataset's, without a
/// Flush: they stay in the tensors' open chunks.
void AppendUnflushed(Dataset& ds, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    ByteBuffer pixels(16 * 16 * 3, static_cast<uint8_t>(i % 256));
    std::map<std::string, Sample> row;
    row["images"] = Sample(DType::kUInt8, TensorShape{16, 16, 3},
                           std::move(pixels));
    row["labels"] = Sample::Scalar(i, DType::kInt32);
    ASSERT_TRUE(ds.Append(row).ok());
  }
}

/// Streams 100 flushed rows plus a 30-row unflushed tail and checks every
/// row arrives once, whole, with its label matching its image.
void ExpectUnflushedTailDelivered(bool shuffle) {
  auto ds = MakeDataset(100, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/8 * 1024);
  AppendUnflushed(*ds, 100, 30);
  ASSERT_EQ(ds->NumRows(), 130u);
  DataloaderOptions opts;
  opts.batch_size = 8;
  opts.num_workers = 3;
  opts.shuffle = shuffle;
  opts.shuffle_buffer_rows = 16;
  Dataloader loader(ds, opts);
  std::vector<int> labels;
  Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (uint64_t i = 0; i < batch.size; ++i) {
      int label = static_cast<int>(batch.columns.at("labels")[i].AsInt());
      const Sample& image = batch.columns.at("images")[i];
      EXPECT_TRUE(image.shape == (TensorShape{16, 16, 3})) << label;
      ASSERT_EQ(image.data.size(), 16u * 16 * 3) << label;
      EXPECT_EQ(image.data[0], static_cast<uint8_t>(label % 256));
      EXPECT_EQ(image.data[image.data.size() - 1],
                static_cast<uint8_t>(label % 256));
      labels.push_back(label);
    }
  }
  ASSERT_EQ(labels.size(), 130u);
  std::vector<int> sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 130; ++i) EXPECT_EQ(sorted[i], i);
  if (!shuffle) {
    EXPECT_EQ(labels, sorted);
  }
}

TEST(DataloaderTest, StreamsUnflushedTailSequential) {
  ExpectUnflushedTailDelivered(/*shuffle=*/false);
}

TEST(DataloaderTest, StreamsUnflushedTailShuffled) {
  ExpectUnflushedTailDelivered(/*shuffle=*/true);
}

TEST(DataloaderTest, UnknownTensorIsNotFound) {
  auto ds = MakeDataset(10, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.tensors = {"nope"};
  Dataloader loader(ds, opts);
  Batch batch;
  auto more = loader.Next(&batch);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsNotFound()) << more.status();
}

// ---------------------------------------------------------------------------
// Sparse reads: byte-range fetches of the wanted samples, shared chunks
// ---------------------------------------------------------------------------

TEST(ReadCostModelTest, FitsLatencyAndBandwidthFromTwoReadSizes) {
  ReadCostModel model;
  EXPECT_FALSE(model.Cost().has_value());
  model.ObserveRead(1000, 12100);
  EXPECT_FALSE(model.Cost().has_value());  // one size says nothing of bytes
  // 8 MB at ~95 MB/s over the same first-byte latency; the slower repeat
  // of the same size is scheduling noise and is ignored.
  model.ObserveRead(8'000'000, 96310);
  model.ObserveRead(8'000'000, 99000);
  auto cost = model.Cost();
  ASSERT_TRUE(cost.has_value());
  EXPECT_NEAR(cost->us_per_byte, 1e6 / 95e6, 1e-4);
  EXPECT_NEAR(cost->latency_us, 12000, 100);
}

TEST(ReadCostModelTest, MergesRunsWhenTheGapCostsLessThanARequest) {
  ReadCost cost{/*latency_us=*/1000, /*us_per_byte=*/0.01};  // 100 KB gap
  std::vector<ByteRange> runs =
      MergeRuns({{0, 10}, {50'000, 10}, {400'000, 10}, {400'010, 10}}, cost);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].length, 50'010u);
  EXPECT_EQ(runs[1].offset, 400'000u);
  EXPECT_EQ(runs[1].length, 20u);
}

constexpr uint64_t kSide = 128;  // 48 KB images: ~85 to a 4 MB chunk

Sample SparseImage(int i) {
  ByteBuffer pixels(kSide * kSide * 3);
  for (size_t b = 0; b < pixels.size(); ++b) {
    pixels[b] = static_cast<uint8_t>(i * 31 + b * 7);
  }
  return Sample(DType::kUInt8, TensorShape{kSide, kSide, 3},
                std::move(pixels));
}

/// `n` rows of distinct 48 KB images in ~4 MB chunks plus int32 labels
/// (one chunk), written straight to `base`.
void WriteSparseDataset(storage::StoragePtr base, int n,
                        const std::string& chunk_compression = "none",
                        const std::string& sample_compression = "none") {
  auto ds = Dataset::Create(base).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = sample_compression;
  img.chunk_compression = chunk_compression;
  img.max_chunk_bytes = 4 << 20;
  ASSERT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(ds->Append({{"images", SparseImage(i)},
                            {"labels", Sample::Scalar(i, DType::kInt32)}})
                    .ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
}

/// Simulated same-region S3 at double speed: the same latency x bandwidth
/// product (~1.1 MB), so the same reads win as at full scale.
sim::NetworkModel ScaledS3() {
  sim::NetworkModel model = sim::NetworkModel::S3SameRegion();
  model.time_scale = 2;
  return model;
}

/// Counts what `base` serves behind a time-scaled S3 model; `layer` names
/// the InstrumentedStore series, so each test passes its own.
std::shared_ptr<storage::InstrumentedStore> CountedS3(
    storage::StoragePtr base, const std::string& layer) {
  return std::make_shared<storage::InstrumentedStore>(
      std::make_shared<sim::SimulatedObjectStore>(base, ScaledS3()), layer);
}

/// Drains `loader`, checking each row's image against Tensor::Read on
/// `reference`; returns the labels in delivery order.
std::vector<int> DrainChecked(Dataloader& loader, Dataset& reference) {
  tsf::Tensor* images = reference.GetTensor("images").MoveValue();
  std::vector<int> labels;
  Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    for (uint64_t i = 0; i < batch.size; ++i) {
      int label = static_cast<int>(batch.columns.at("labels")[i].AsInt());
      const Sample& got = batch.columns.at("images")[i];
      Sample want = images->Read(static_cast<uint64_t>(label)).MoveValue();
      EXPECT_TRUE(got.shape == want.shape) << label;
      EXPECT_EQ(ByteView(got.data), ByteView(want.data)) << label;
      labels.push_back(label);
    }
  }
  return labels;
}

uint64_t ChunkBytes(storage::StorageProvider& base,
                    const std::string& tensor) {
  uint64_t total = 0;
  auto keys = base.ListPrefix("tensors/" + tensor + "/chunks/");
  EXPECT_TRUE(keys.ok()) << keys.status();
  for (const auto& k : *keys) total += base.SizeOf(k).MoveValue();
  return total;
}

TEST(SparseReadTest, SparseViewReadsOnlyWantedSamplesByRange) {
  auto base = std::make_shared<storage::MemoryStore>();
  WriteSparseDataset(base, 400);
  auto s3 = CountedS3(base, "stream_test.sparse_view");
  auto ds = Dataset::Open(s3).MoveValue();
  auto reference = Dataset::Open(base).MoveValue();
  // Two rows of each ~85-row chunk, ~2 MB apart: reading the gap costs
  // more than a request, so each is its own range read.
  auto view = tql::RunQuery(ds, "SELECT * FROM ds WHERE labels % 40 = 7");
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), 10u);

  const uint64_t ranges_before = s3->get_ranges();
  const uint64_t bytes_before = s3->bytes_read();
  DataloaderOptions opts;
  opts.batch_size = 4;
  opts.num_workers = 1;
  Dataloader loader(ds, *view, opts);
  std::vector<int> labels = DrainChecked(loader, *reference);
  ASSERT_EQ(labels.size(), 10u);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], static_cast<int>(40 * i + 7));
  }
  EXPECT_GT(s3->get_ranges() - ranges_before, 0u);
  EXPECT_LT(s3->bytes_read() - bytes_before, ChunkBytes(*base, "images"));
}

TEST(SparseReadTest, FullScanIssuesNoRangeReads) {
  auto base = std::make_shared<storage::MemoryStore>();
  WriteSparseDataset(base, 200);
  auto s3 = CountedS3(base, "stream_test.full_scan");
  auto ds = Dataset::Open(s3).MoveValue();
  auto reference = Dataset::Open(base).MoveValue();
  const uint64_t ranges_before = s3->get_ranges();
  for (bool shuffle : {false, true}) {
    DataloaderOptions opts;
    opts.batch_size = 16;
    opts.num_workers = 2;
    opts.shuffle = shuffle;
    Dataloader loader(ds, opts);
    EXPECT_EQ(DrainChecked(loader, *reference).size(), 200u);
  }
  EXPECT_EQ(s3->get_ranges(), ranges_before);
}

TEST(SparseReadTest, OneChunkTensorIsFetchedOncePerLoader) {
  auto base = std::make_shared<storage::MemoryStore>();
  WriteSparseDataset(base, 200);
  auto s3 = CountedS3(base, "stream_test.one_chunk");
  auto ds = Dataset::Open(s3).MoveValue();
  const uint64_t image_chunks =
      ds->GetTensor("images").MoveValue()->chunk_encoder().num_chunks();
  ASSERT_GT(image_chunks, 1u);
  ASSERT_EQ(ds->GetTensor("labels").MoveValue()->chunk_encoder().num_chunks(),
            1u);
  for (bool shuffle : {false, true}) {
    const uint64_t gets_before = s3->gets();
    DataloaderOptions opts;
    opts.batch_size = 16;
    opts.num_workers = 3;
    opts.shuffle = shuffle;
    Dataloader loader(ds, opts);
    EXPECT_EQ(DrainLabels(loader).size(), 200u);
    // One Get per image chunk, and the labels chunk once.
    EXPECT_EQ(s3->gets() - gets_before, image_chunks + 1) << shuffle;
  }
}

/// A 256-byte mask whose bytes identify row `i`.
Sample MaskOf(int i) {
  ByteBuffer bytes(16 * 16);
  for (size_t b = 0; b < bytes.size(); ++b) {
    bytes[b] = static_cast<uint8_t>(i * 13 + b);
  }
  return Sample(DType::kUInt8, TensorShape{16, 16}, std::move(bytes));
}

/// `n` rows of 3 KB images in 48 KB chunks (16 rows each), masks in 12 KB
/// chunks (48 rows, so each spans about three image units) and labels in
/// one chunk.
void WriteMaskedDataset(storage::StoragePtr base, int n) {
  auto ds = Dataset::Create(base).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  img.max_chunk_bytes = 48 << 10;
  ASSERT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions mask;
  mask.dtype = "uint8";
  mask.sample_compression = "none";
  mask.chunk_compression = "none";
  mask.max_chunk_bytes = 12 << 10;
  ASSERT_TRUE(ds->CreateTensor("masks", mask).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    ByteBuffer pixels(32 * 32 * 3, static_cast<uint8_t>(i % 251));
    ASSERT_TRUE(ds->Append({{"images", Sample(DType::kUInt8,
                                              TensorShape{32, 32, 3},
                                              std::move(pixels))},
                            {"masks", MaskOf(i)},
                            {"labels", Sample::Scalar(i, DType::kInt32)}})
                    .ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
}

TEST(SharedChunkTest, ShuffledEpochKeepsSharedChunksWithinThePrefetchWindow) {
  auto base = std::make_shared<storage::MemoryStore>();
  WriteMaskedDataset(base, 960);
  auto counted = std::make_shared<storage::InstrumentedStore>(
      base, "stream_test.masks");
  auto ds = Dataset::Open(counted).MoveValue();
  const uint64_t image_chunks =
      ds->GetTensor("images").MoveValue()->chunk_encoder().num_chunks();
  const uint64_t mask_chunks =
      ds->GetTensor("masks").MoveValue()->chunk_encoder().num_chunks();
  ASSERT_GE(mask_chunks, 15u);
  ASSERT_GE(image_chunks, 2 * mask_chunks);
  for (bool shuffle : {false, true}) {
    const uint64_t gets_before = counted->gets();
    DataloaderOptions opts;
    opts.batch_size = 16;
    opts.num_workers = 2;
    opts.prefetch_units = 2;
    opts.shuffle = shuffle;
    Dataloader loader(ds, opts);
    std::vector<int> labels;
    Batch batch;
    while (true) {
      auto more = loader.Next(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      for (uint64_t i = 0; i < batch.size; ++i) {
        int label = static_cast<int>(batch.columns.at("labels")[i].AsInt());
        EXPECT_EQ(ByteView(batch.columns.at("masks")[i].data),
                  ByteView(MaskOf(label).data))
            << label;
        labels.push_back(label);
      }
    }
    std::sort(labels.begin(), labels.end());
    ASSERT_EQ(labels.size(), 960u);
    for (int i = 0; i < 960; ++i) ASSERT_EQ(labels[i], i);
    // In flight are at most prefetch_units units, each holding at most two
    // mask chunks (its rows may cross a mask-chunk boundary); besides
    // those, masks keeps at most prefetch_units idle chunks, and labels
    // has one chunk. A chunk pinned from its first to its last planned
    // reader would leave ~3/4 of the mask chunks resident mid-epoch.
    const uint64_t bound = 2 * opts.prefetch_units + opts.prefetch_units + 1;
    EXPECT_LE(loader.stats().peak_shared_chunks, bound) << shuffle;
    EXPECT_GE(loader.stats().peak_shared_chunks, 2u) << shuffle;
    const uint64_t gets = counted->gets() - gets_before;
    if (shuffle) {
      // A dropped mask chunk is fetched again by its next reader.
      EXPECT_GE(gets, image_chunks + mask_chunks + 1);
    } else {
      // In order, a mask chunk's readers are consecutive: one Get each.
      EXPECT_EQ(gets, image_chunks + mask_chunks + 1);
    }
  }
}

/// Streams the sparse view of SparseViewReadsOnlyWantedSamplesByRange
/// over images stored with these compressions; returns the range reads.
uint64_t SparseViewRangeReads(const std::string& chunk_compression,
                              const std::string& sample_compression) {
  auto base = std::make_shared<storage::MemoryStore>();
  WriteSparseDataset(base, 400, chunk_compression, sample_compression);
  auto s3 = CountedS3(base, "stream_test.compressed." + chunk_compression +
                                "." + sample_compression);
  auto ds = Dataset::Open(s3).MoveValue();
  auto reference = Dataset::Open(base).MoveValue();
  auto view = tql::RunQuery(ds, "SELECT * FROM ds WHERE labels % 40 = 7");
  EXPECT_TRUE(view.ok()) << view.status();
  if (!view.ok()) return 0;
  const uint64_t ranges_before = s3->get_ranges();
  DataloaderOptions opts;
  opts.batch_size = 4;
  opts.num_workers = 1;
  Dataloader loader(ds, *view, opts);
  EXPECT_EQ(DrainChecked(loader, *reference).size(), view->size());
  return s3->get_ranges() - ranges_before;
}

TEST(SparseReadTest, ChunkCompressedTensorNeverReadsByRange) {
  EXPECT_EQ(SparseViewRangeReads(/*chunk_compression=*/"lz77",
                                 /*sample_compression=*/"none"),
            0u);
}

TEST(SparseReadTest, SampleCompressedTensorNeverReadsByRange) {
  // The shape index gives no stored size for a compressed sample, so the
  // cost rule has nothing to weigh: such chunks are read whole.
  EXPECT_EQ(SparseViewRangeReads(/*chunk_compression=*/"none",
                                 /*sample_compression=*/"lz77"),
            0u);
}

TEST(SparseReadTest, FailedRangeReadSurfacesFromNext) {
  auto base = std::make_shared<storage::MemoryStore>();
  WriteSparseDataset(base, 400);
  auto faulty = std::make_shared<storage::FaultInjectionStore>(
      std::make_shared<sim::SimulatedObjectStore>(base, ScaledS3()),
      /*fail_every=*/1, storage::kFaultGetRange);
  auto ds = Dataset::Open(faulty).MoveValue();
  auto view = tql::RunQuery(ds, "SELECT * FROM ds WHERE labels % 40 = 7");
  ASSERT_TRUE(view.ok()) << view.status();
  DataloaderOptions opts;
  opts.batch_size = 1;
  opts.num_workers = 1;
  Dataloader loader(ds, *view, opts);
  Batch batch;
  Status seen;
  uint64_t rows = 0;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) {
      seen = more.status();
      break;
    }
    if (!*more) break;
    rows += batch.size;
  }
  // Only GetRange is faulted, so the error can only come from a range read.
  EXPECT_TRUE(seen.IsIOError()) << seen;
  EXPECT_LT(rows, view->size());
}

}  // namespace
}  // namespace dl::stream
