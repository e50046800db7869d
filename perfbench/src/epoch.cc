// epoch-jpeg-local: shuffled multi-epoch streaming of lossy-JPEG images
// from a local store, the paper's Fig. 7 path. Decode-bound: the image
// codec and the loader's fan-out do nearly all the work.

#include "compress/codec.h"
#include "sim/workload.h"
#include "tsf/chunk.h"
#include "tsf/dataset.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 2000;
constexpr uint64_t kBatchSize = 64;

class EpochJpegLocal : public Workload {
 public:
  explicit EpochJpegLocal(const Options& options)
      : seed_(options.seed),
        gen_(dl::sim::WorkloadGenerator::SmallJpeg(), options.seed) {}

  dl::Status Setup() override {
    dataset_.reset();
    stack_ = std::make_unique<ProbedStack>(dl::sim::NetworkModel::LocalFs());
    dl::tsf::Dataset::Options ds_options;
    ds_options.with_sample_ids = false;
    DL_ASSIGN_OR_RETURN(auto ds,
                        dl::tsf::Dataset::Create(stack_->top, ds_options));
    DL_RETURN_IF_ERROR(CreateTensors(*ds, "jpeg"));
    DL_ASSIGN_OR_RETURN(dl::tsf::Tensor * images, ds->GetTensor("images"));
    DL_ASSIGN_OR_RETURN(dl::tsf::Tensor * labels, ds->GetTensor("labels"));
    DL_ASSIGN_OR_RETURN(dl::tsf::Tensor * ids, ds->GetTensor("ids"));

    // Generate and encode every image in parallel (one pass, so the
    // threads never wait for each other mid-build), then append the frames
    // in id order through the tensor's precompressed fast path.
    labels_.assign(kRows, 0);
    const dl::compress::Compression codec = images->meta().sample_compression;
    const int quality = images->meta().quality;
    std::vector<dl::Result<dl::ByteBuffer>> frames(kRows, dl::ByteBuffer());
    ParallelFor(kRows, kSetupThreads, [&](size_t i) {
      dl::sim::SampleSpec s = gen_.Generate(i);
      dl::compress::CodecContext ctx = dl::tsf::ContextForSample(
          dl::tsf::DType::kUInt8, dl::tsf::TensorShape(s.shape));
      ctx.quality = quality;
      frames[i] = dl::compress::CompressBytes(codec, dl::ByteView(s.pixels), ctx);
      labels_[i] = s.label;
    });
    const dl::tsf::TensorShape shape(gen_.ShapeOf(0));
    for (size_t i = 0; i < kRows; ++i) {
      if (!frames[i].ok()) return frames[i].status();
      DL_RETURN_IF_ERROR(
          images->AppendPrecompressed(dl::ByteView(*frames[i]), shape));
      frames[i] = dl::ByteBuffer();  // release as soon as it is stored
      DL_RETURN_IF_ERROR(labels->Append(
          dl::tsf::Sample::Scalar(labels_[i], dl::tsf::DType::kInt32)));
      DL_RETURN_IF_ERROR(ids->Append(dl::tsf::Sample::Scalar(
          static_cast<int64_t>(i), dl::tsf::DType::kInt64)));
    }
    DL_RETURN_IF_ERROR(ds->Flush());
    ds.reset();
    DL_ASSIGN_OR_RETURN(dataset_, dl::tsf::Dataset::Open(stack_->top));
    if (dataset_->NumRows() != kRows) {
      return dl::Status::Corruption("reopened dataset has the wrong length");
    }
    return dl::Status::OK();
  }

  uint64_t Measure(double seconds, Outcome* out, Metrics* metrics) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    const std::vector<uint64_t> image_shape =
        gen_.ShapeOf(0);  // every SmallJpeg image has the same shape
    const std::vector<uint8_t> all_ids(kRows, 1);
    passes_.clear();
    std::vector<double> first_batch_ms;
    uint64_t rows = 0;
    while (NowNs() < deadline) {
      dl::stream::DataloaderOptions lopts;
      lopts.batch_size = kBatchSize;
      lopts.num_workers = kLoaderWorkers;
      lopts.shuffle = true;
      lopts.seed = dl::Mix64(seed_ ^ (++epochs_ * 0x9e3779b97f4a7c15ull));
      lopts.tensors = {"images", "labels", "ids"};

      RowOracle oracle{labels_, image_shape, std::vector<uint8_t>(kRows, 0)};
      auto check = [&](const dl::stream::Batch& batch) {
        for (uint64_t k = 0; k < batch.size; ++k) {
          bool ok = false;
          oracle.Check(batch, k, all_ids, &ok);
          out->Count(ok);
        }
      };
      PassResult pass = StreamPass(
          [&] {
            return std::make_unique<dl::stream::Dataloader>(dataset_, lopts);
          },
          deadline, check);
      rows += pass.rows;
      if (pass.first_batch_ms >= 0) first_batch_ms.push_back(pass.first_batch_ms);
      if (pass.finished || pass.failed) {
        // Every id must arrive once per epoch: each one that did not is a
        // failed delivery.
        for (uint64_t i = oracle.seen_count; i < kRows; ++i) out->Count(false);
      }
      if (pass.finished) passes_.push_back(pass.stats);
    }
    (*metrics)["first_batch_ms"] = Median(first_batch_ms);
    return rows;
  }

  void LayerMetrics(const std::vector<Span>& spans, double wall_s,
                    uint64_t rows, Metrics* metrics) override {
    StreamLayerMetrics(spans, wall_s, passes_, metrics);
    StorageLayerMetrics(*stack_, spans, rows, 0, metrics);
    auto images = dataset_->GetTensor("images");
    if (images.ok()) CodecLayerMetrics(**images, metrics);
  }

  ProbedStack& stack() override { return *stack_; }

 private:
  const uint64_t seed_;
  const dl::sim::WorkloadGenerator gen_;
  std::unique_ptr<ProbedStack> stack_;
  std::shared_ptr<dl::tsf::Dataset> dataset_;
  std::vector<int64_t> labels_;  // generator label of each id
  uint64_t epochs_ = 0;
  std::vector<dl::stream::DataloaderStats> passes_;  // finished, last Measure
};

}  // namespace

std::unique_ptr<Workload> MakeEpochJpegLocal(const Options& options) {
  return std::make_unique<EpochJpegLocal>(options);
}

}  // namespace perfbench
