// Ablation A1 — the chunk-size trade-off behind §3.4's "lower and upper
// bound" rule and §3.5's 8MB default: small chunks multiply request count
// (latency-bound on object storage), huge chunks over-fetch for shuffled
// access. Sweeps the chunk target over sequential-scan and shuffled-stream
// epochs against a simulated S3 backend.

#include "bench/bench_util.h"
#include "sim/network_model.h"
#include "stream/dataloader.h"

namespace dl::bench {
namespace {

constexpr int kImages = 2000;

struct EpochResult {
  double seconds = -1;
  uint64_t gets = 0;  // chunk GETs from after Dataset::Open to the drain
};

EpochResult Epoch(const std::shared_ptr<storage::InstrumentedStore>& s3,
                  bool shuffle) {
  EpochResult r;
  auto ds = tsf::Dataset::Open(s3);
  if (!ds.ok()) return r;
  uint64_t gets_before = s3->gets();
  stream::DataloaderOptions opts;
  opts.batch_size = 32;
  opts.num_workers = 6;
  opts.prefetch_units = 12;
  opts.shuffle = shuffle;
  opts.tensors = {"images", "labels"};
  stream::Dataloader loader(*ds, opts);
  Stopwatch sw;
  stream::Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok() || !*more) break;
  }
  r.seconds = sw.ElapsedSeconds();
  r.gets = s3->gets() - gets_before;
  return r;
}

}  // namespace
}  // namespace dl::bench

int main() {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();
  Header("Ablation A1 — chunk size vs streaming performance over S3",
         "paper §3.4 chunk bounds / §3.5 8MB default",
         "2000 JPEG-compressed 64^2x3 images per configuration, simulated "
         "same-region S3",
         "tiny chunks: latency-bound request-count penalty; MB-scale chunks "
         "plateau (the 8MB default sits on it)");

  Table table({"chunk target", "chunks", "scan epoch", "shuffled epoch",
               "scan GETs", "shuffled GETs"});
  for (uint64_t kb : {uint64_t{64}, uint64_t{256}, uint64_t{1024},
                      uint64_t{4096}, uint64_t{16384}}) {
    auto base = std::make_shared<storage::MemoryStore>();
    // Build with the given chunk target.
    {
      DeepLake::OpenOptions oopts;
      oopts.with_version_control = false;
      auto lake = DeepLake::Open(base, oopts).MoveValue();
      tsf::TensorOptions img;
      img.htype = "image";
      img.sample_compression = "jpeg";
      img.max_chunk_bytes = kb << 10;
      (void)lake->CreateTensor("images", img);
      tsf::TensorOptions lbl;
      lbl.htype = "class_label";
      (void)lake->CreateTensor("labels", lbl);
      sim::WorkloadGenerator gen(sim::WorkloadGenerator::FfhqLike(64), 71);
      for (int i = 0; i < kImages; ++i) {
        auto s = gen.Generate(i);
        std::map<std::string, tsf::Sample> row;
        row["images"] = tsf::Sample(tsf::DType::kUInt8,
                                    tsf::TensorShape(s.shape),
                                    std::move(s.pixels));
        row["labels"] = tsf::Sample::Scalar(s.label, tsf::DType::kInt32);
        (void)lake->Append(row);
      }
      (void)lake->Flush();
    }
    // The instrumented layer counts what the simulated S3 serves.
    auto s3 = std::make_shared<storage::InstrumentedStore>(
        std::make_shared<sim::SimulatedObjectStore>(
            base, sim::NetworkModel::S3SameRegion()),
        "ablation_chunk_size.s3." + std::to_string(kb) + "KB");
    uint64_t chunks = 0;
    {
      auto ds = tsf::Dataset::Open(base).MoveValue();
      chunks = ds->GetTensor("images").MoveValue()->chunk_encoder()
                   .num_chunks();
    }
    EpochResult scan = Epoch(s3, /*shuffle=*/false);
    EpochResult shuffled = Epoch(s3, /*shuffle=*/true);
    table.AddRow({std::to_string(kb) + " KB", std::to_string(chunks),
                  Secs(scan.seconds), Secs(shuffled.seconds),
                  std::to_string(scan.gets), std::to_string(shuffled.gets)});
  }
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("ablation_chunk_size", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return 0;
}
