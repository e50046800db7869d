// view-raw-s3: each iteration runs a TQL filter of about 10% selectivity
// over an uncompressed image dataset in simulated same-region S3, then
// streams the sparse view. Network- and storage-bound; no image codec on
// the path.

#include <string>

#include "sim/workload.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 1200;
constexpr uint64_t kBatchSize = 16;
constexpr size_t kSetupBlock = 64;
constexpr int64_t kNumClasses = 1000;  // SmallJpeg labels are in [0, 1000)
constexpr int64_t kBand = 100;         // label band width: ~10% of rows
constexpr int64_t kByteCheckEvery = 8;  // ids whose pixels are compared

class ViewRawS3 : public Workload {
 public:
  explicit ViewRawS3(const Options& options)
      : seed_(options.seed),
        gen_(dl::sim::WorkloadGenerator::SmallJpeg(), options.seed) {}

  dl::Status Setup() override {
    dataset_.reset();
    stack_ =
        std::make_unique<ProbedStack>(dl::sim::NetworkModel::S3SameRegion());
    // The dataset is written below the simulated network (an upload that
    // happened earlier) and opened through it.
    DL_ASSIGN_OR_RETURN(auto ds, dl::tsf::Dataset::Create(stack_->lower));
    DL_RETURN_IF_ERROR(CreateTensors(*ds, "none"));

    labels_.assign(kRows, 0);
    for (size_t first = 0; first < kRows; first += kSetupBlock) {
      size_t n = std::min(kSetupBlock, kRows - first);
      std::vector<dl::sim::SampleSpec> block(n);
      ParallelFor(n, kSetupThreads,
                  [&](size_t i) { block[i] = gen_.Generate(first + i); });
      for (size_t i = 0; i < n; ++i) {
        labels_[first + i] = block[i].label;
        DL_RETURN_IF_ERROR(ds->Append(
            MakeRow(static_cast<int64_t>(first + i), std::move(block[i]))));
      }
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
    const std::vector<uint64_t> image_shape = gen_.ShapeOf(0);
    passes_.clear();
    profiles_.clear();
    std::vector<double> first_batch_ms, query_ms;
    uint64_t rows = 0;
    while (NowNs() < deadline) {
      dl::Rng rng(dl::Mix64(seed_ ^ (++iterations_ * 0xc2b2ae3d27d4eb4full)));
      int64_t lo = static_cast<int64_t>(rng.Uniform(kNumClasses - kBand + 1));
      int64_t hi = lo + kBand;
      std::vector<uint8_t> wanted(kRows, 0);
      uint64_t wanted_count = 0;
      for (size_t i = 0; i < kRows; ++i) {
        if (labels_[i] >= lo && labels_[i] < hi) {
          wanted[i] = 1;
          ++wanted_count;
        }
      }

      // The query: its row set must be exactly the generator's band.
      dl::tql::QueryProfile profile;
      dl::tql::QueryOptions qopts;
      qopts.profile = &profile;
      std::string text = "SELECT * FROM ds WHERE labels >= " +
                         std::to_string(lo) + " AND labels < " +
                         std::to_string(hi);
      uint64_t op = Tracer::Global().NewId();
      int64_t start = NowNs();
      dl::Result<dl::tql::DatasetView> view = dl::Status::Unknown("not run");
      {
        ScopedSpan span("tql.run_query", op);
        view = dl::tql::RunQuery(dataset_, text, qopts);
      }
      query_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      bool query_ok = view.ok() && view->size() == wanted_count;
      if (query_ok) {
        for (uint64_t r : view->indices()) {
          query_ok = query_ok && r < kRows && wanted[r];
        }
      }
      out->Count(query_ok);
      if (!view.ok()) continue;
      profiles_.push_back({profile, view->size()});

      // Stream the view: every wanted id once, with its label and shape;
      // every kByteCheckEvery-th id also byte for byte.
      RowOracle oracle{labels_, image_shape, std::vector<uint8_t>(kRows, 0)};
      auto check = [&](const dl::stream::Batch& batch) {
        for (uint64_t k = 0; k < batch.size; ++k) {
          bool ok = false;
          int64_t id = oracle.Check(batch, k, wanted, &ok);
          if (ok && id % kByteCheckEvery == 0) {
            const dl::tsf::Sample& image = batch.columns.at("images")[k];
            dl::sim::SampleSpec expected = gen_.Generate(id);
            ok = dl::ByteView(image.data.data(), image.data.size()) ==
                 dl::ByteView(expected.pixels);
          }
          out->Count(ok);
        }
      };
      dl::stream::DataloaderOptions lopts;
      lopts.batch_size = kBatchSize;
      lopts.num_workers = kLoaderWorkers;
      lopts.tensors = {"images", "labels", "ids"};
      const dl::tql::DatasetView& selected = *view;
      PassResult pass = StreamPass(
          [&] {
            return std::make_unique<dl::stream::Dataloader>(dataset_, selected,
                                                            lopts);
          },
          deadline, check, op);
      rows += pass.rows;
      if (pass.first_batch_ms >= 0) first_batch_ms.push_back(pass.first_batch_ms);
      if (pass.finished || pass.failed) {
        for (uint64_t i = oracle.seen_count; i < wanted_count; ++i) {
          out->Count(false);
        }
      }
      if (pass.finished) passes_.push_back(pass.stats);
    }
    (*metrics)["first_batch_ms"] = Median(first_batch_ms);
    (*metrics)["query_ms"] = Median(query_ms);
    return rows;
  }

  void LayerMetrics(const std::vector<Span>& spans, double wall_s,
                    uint64_t rows, Metrics* metrics) override {
    StreamLayerMetrics(spans, wall_s, passes_, metrics);
    StorageLayerMetrics(*stack_, spans, rows, 0, metrics);
    std::vector<double> parse_us, execute_ms, examined;
    for (const auto& [profile, result_rows] : profiles_) {
      parse_us.push_back(static_cast<double>(profile.parse_us));
      execute_ms.push_back(static_cast<double>(profile.total_us) / 1e3);
      uint64_t rows_in = 0;
      for (const auto& op : profile.operators) {
        rows_in = std::max(rows_in, op.rows_in);
      }
      if (result_rows > 0) {
        examined.push_back(static_cast<double>(rows_in) /
                           static_cast<double>(result_rows));
      }
    }
    (*metrics)["tql.parse_us"] = Median(parse_us);
    (*metrics)["tql.execute_ms"] = Median(execute_ms);
    (*metrics)["tql.rows_examined_per_result"] = Median(examined);
  }

  ProbedStack& stack() override { return *stack_; }

 private:
  const uint64_t seed_;
  const dl::sim::WorkloadGenerator gen_;
  std::unique_ptr<ProbedStack> stack_;
  std::shared_ptr<dl::tsf::Dataset> dataset_;
  std::vector<int64_t> labels_;
  uint64_t iterations_ = 0;
  std::vector<dl::stream::DataloaderStats> passes_;
  std::vector<std::pair<dl::tql::QueryProfile, uint64_t>> profiles_;
};

}  // namespace

std::unique_ptr<Workload> MakeViewRawS3(const Options& options) {
  return std::make_unique<ViewRawS3>(options);
}

}  // namespace perfbench
