// ingest-relabel: a version-controlled lake on a local store, driven by
// three threads — a closed-loop appender landing DeepLake::Transact
// transactions of JPEG rows, an open-loop relabeler rewriting labels of
// sealed rows with UpdateContiguous, and an open-loop point reader reading
// random rows of the sealed head through At(). Exercises the write path
// (image encode, chunk encoding, Put, MVCC publish and rebase) beside
// random reads.

#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/deeplake.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kSeedRows = 200;
constexpr uint64_t kAppendRows = 25;   // rows per append transaction
constexpr uint64_t kRelabelRows = 25;  // labels per relabel transaction
// At 10 relabels/s one lands inside nearly every append transaction, so
// appends steadily take the rebase path. At 4/s appends flipped between the
// fast path and rebase from run to run; at 20/s the relabeler fell behind
// its schedule and the backlog grew.
constexpr double kRelabelsPerSecond = 10;
constexpr double kReadsPerSecond = 40;
constexpr int kRelabelAttempts = 8;
constexpr int64_t kNumClasses = 1000;
constexpr size_t kSetupBlock = 64;

/// Registry counters of the version layer, read through the public
/// DeepLake::MetricsSnapshot.
struct TxnCounters {
  double fast_path = 0, rebased = 0, conflicts = 0, retries = 0;
};

/// Row state of the lake: generator id and current label per row.
struct RowState {
  int64_t id;
  int64_t label;
};

/// What a landed commit changed, as the benchmark asked for it.
struct CommitRecord {
  std::vector<RowState> appended;  // in row order
  uint64_t relabel_start = 0;
  std::vector<int64_t> relabel_values;
};

/// A point read, checked against the commit it pinned once the commit
/// order is known.
struct PointRead {
  std::string commit;
  uint64_t row = 0;
  int64_t id = -1;
  int64_t label = -1;
  bool ok = false;  // the read succeeded and the image had the right shape
};

class IngestRelabel : public Workload {
 public:
  explicit IngestRelabel(const Options& options)
      : seed_(options.seed),
        gen_(dl::sim::WorkloadGenerator::SmallJpeg(), options.seed) {}

  dl::Status Setup() override {
    lake_.reset();
    stack_ = std::make_unique<ProbedStack>(dl::sim::NetworkModel::LocalFs());
    DL_ASSIGN_OR_RETURN(lake_, dl::DeepLake::Open(stack_->top));
    DL_RETURN_IF_ERROR(CreateTensors(lake_->dataset(), "jpeg"));

    records_.clear();
    reads_.clear();
    seed_state_.clear();
    for (size_t first = 0; first < kSeedRows; first += kSetupBlock) {
      size_t n = std::min(kSetupBlock, kSeedRows - first);
      std::vector<dl::sim::SampleSpec> block(n);
      ParallelFor(n, kSetupThreads,
                  [&](size_t i) { block[i] = gen_.Generate(first + i); });
      for (size_t i = 0; i < n; ++i) {
        int64_t id = static_cast<int64_t>(first + i);
        seed_state_.push_back({id, block[i].label});
        DL_RETURN_IF_ERROR(lake_->Append(MakeRow(id, std::move(block[i]))));
      }
    }
    DL_ASSIGN_OR_RETURN(seed_commit_, lake_->Commit("seed"));
    next_id_ = static_cast<int64_t>(kSeedRows);
    return dl::Status::OK();
  }

  uint64_t Measure(double seconds, Outcome* out, Metrics* metrics) override {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    const TxnCounters counters0 = ReadTxnCounters();
    phase_user_bytes_ = 0;
    relabel_retries_ = 0;

    std::vector<double> relabel_ms, read_ms, lag_ms;
    std::thread relabeler([&] { RelabelLoop(start, deadline, &relabel_ms, &lag_ms); });
    std::vector<double> reader_lag_ms;
    std::thread reader([&] { ReadLoop(start, deadline, &read_ms, &reader_lag_ms); });

    // The appender: closed loop on this thread.
    std::vector<double> append_ms;
    uint64_t rows = 0;
    while (NowNs() < deadline) {
      std::vector<RowState> appended;
      std::vector<dl::sim::SampleSpec> samples;
      uint64_t user_bytes = 0;
      for (uint64_t i = 0; i < kAppendRows; ++i) {
        samples.push_back(gen_.Generate(next_id_));
        appended.push_back({next_id_++, samples.back().label});
        user_bytes += samples.back().pixels.size() + 12;  // + label and id
      }
      uint64_t op = Tracer::Global().NewId();
      int64_t t0 = NowNs();
      dl::Result<std::string> landed = dl::Status::Unknown("not run");
      {
        ScopedSpan span("ingest.append_txn", op);
        landed = lake_->Transact(
            [&](dl::tsf::Dataset& ds) -> dl::Status {
              ScopedSpan body("tsf.append");
              for (uint64_t i = 0; i < kAppendRows; ++i) {
                // The body may run again after a conflict, so it copies.
                dl::sim::SampleSpec copy = samples[i];
                DL_RETURN_IF_ERROR(
                    ds.Append(MakeRow(appended[i].id, std::move(copy))));
              }
              return dl::Status::OK();
            },
            "append");
      }
      append_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      append_ok_.Count(landed.ok());
      if (landed.ok()) {
        Remember(*landed, CommitRecord{std::move(appended), 0, {}});
        rows += kAppendRows;
        phase_user_bytes_ += user_bytes;
      }
    }
    double wall = SecondsSince(start);
    relabeler.join();
    reader.join();

    const TxnCounters counters1 = ReadTxnCounters();
    // The library counts the retries of Transact (the appender); the
    // relabeler retries by hand and counts its own.
    txn_delta_ = {counters1.fast_path - counters0.fast_path,
                  counters1.rebased - counters0.rebased,
                  counters1.conflicts - counters0.conflicts,
                  counters1.retries - counters0.retries +
                      static_cast<double>(relabel_retries_)};

    for (Outcome* part : {&append_ok_, &relabel_ok_}) {
      out->attempted += part->attempted;
      out->failed += part->failed;
      *part = Outcome();
    }
    lag_ms.insert(lag_ms.end(), reader_lag_ms.begin(), reader_lag_ms.end());
    Metrics& m = *metrics;
    m["ingest_samples_per_s"] = static_cast<double>(rows) / wall;
    m["append_commit_ms_p50"] = Percentile(append_ms, 50);
    m["append_commit_ms_p90"] = Percentile(append_ms, 90);
    m["relabel_commit_ms_p50"] = Percentile(relabel_ms, 50);
    m["point_read_ms_p50"] = Percentile(read_ms, 50);
    m["point_read_ms_p99"] = Percentile(read_ms, 99);
    m["bench.schedule_lag_ms_p99"] = Percentile(lag_ms, 99);
    return rows;
  }

  void Verify(Outcome* out) override {
    // Replay the branch's commits in order from what the benchmark asked
    // for; every point read must match the state of the commit it pinned,
    // and the final head must hold every landed append and relabel.
    std::vector<dl::version::CommitInfo> log = lake_->Log();
    std::unordered_map<std::string, std::vector<const PointRead*>> by_commit;
    for (const PointRead& r : reads_) by_commit[r.commit].push_back(&r);
    std::vector<RowState> state;
    size_t applied = 0;
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      const std::string& id = it->id;
      if (id == seed_commit_) state = seed_state_;
      auto rec = records_.find(id);
      if (rec != records_.end()) {
        ++applied;
        const auto& appended = rec->second.appended;
        state.insert(state.end(), appended.begin(), appended.end());
        const auto& values = rec->second.relabel_values;
        for (size_t j = 0; j < values.size(); ++j) {
          uint64_t row = rec->second.relabel_start + j;
          if (row < state.size()) state[row].label = values[j];
        }
      }
      auto reads = by_commit.find(id);
      if (reads == by_commit.end()) continue;
      for (const PointRead* r : reads->second) {
        out->Count(r->ok && r->row < state.size() &&
                   state[r->row].id == r->id &&
                   state[r->row].label == r->label);
      }
      by_commit.erase(reads);
    }
    // Reads of commits missing from the branch, and landed commits missing
    // from it, are failures.
    for (const auto& [commit, reads] : by_commit) {
      for (size_t i = 0; i < reads.size(); ++i) out->Count(false);
    }
    for (size_t i = applied; i < records_.size(); ++i) out->Count(false);
    reads_.clear();

    auto head = lake_->HeadCommit();
    auto snapshot = head.ok() ? lake_->At(*head)
                              : dl::Result<std::shared_ptr<dl::tsf::Dataset>>(
                                    head.status());
    if (!snapshot.ok() || (*snapshot)->NumRows() != state.size()) {
      out->Count(false);
      return;
    }
    auto ids = (*snapshot)->GetTensor("ids");
    auto labels = (*snapshot)->GetTensor("labels");
    if (!ids.ok() || !labels.ok()) {
      out->Count(false);
      return;
    }
    for (uint64_t row = 0; row < state.size(); ++row) {
      auto id = (*ids)->Read(row);
      auto label = (*labels)->Read(row);
      out->Count(id.ok() && label.ok() && id->AsInt() == state[row].id &&
                 label->AsInt() == state[row].label);
    }
  }

  void LayerMetrics(const std::vector<Span>& spans, double wall_s,
                    uint64_t rows, Metrics* metrics) override {
    (void)wall_s;
    Metrics& m = *metrics;
    StorageLayerMetrics(*stack_, spans, rows, phase_user_bytes_, metrics);
    m["tsf.append_us_per_sample"] =
        rows == 0 ? 0
                  : Sum(SpanMs(spans, "tsf.append")) * 1e3 /
                        static_cast<double>(rows);
    m["tsf.read_row_ms"] = Median(SpanMs(spans, "tsf.read_row"));

    // Publish time of each append transaction: its wall time minus its
    // body. Relabels are left out; they are the appends' background load.
    std::map<uint64_t, double> txn_ms, body_ms;
    for (const Span& s : spans) {
      if (s.name == "ingest.append_txn") {
        txn_ms[s.op] += s.ms();
      } else if (s.name == "tsf.append") {
        body_ms[s.op] += s.ms();
      }
    }
    std::vector<double> publish_ms;
    for (const auto& [op, ms] : txn_ms) publish_ms.push_back(ms - body_ms[op]);
    m["version.publish_ms"] = Median(publish_ms);
    double landed = txn_delta_.fast_path + txn_delta_.rebased;
    m["version.rebased_share"] = landed == 0 ? 0 : txn_delta_.rebased / landed;
    m["version.conflicts"] = landed == 0 ? 0 : txn_delta_.conflicts / landed;
    m["version.retries"] = landed == 0 ? 0 : txn_delta_.retries / landed;

    auto head = lake_->HeadCommit();
    if (!head.ok()) return;
    auto snapshot = lake_->At(*head);
    if (!snapshot.ok()) return;
    auto images = (*snapshot)->GetTensor("images");
    if (images.ok()) CodecLayerMetrics(**images, metrics);
  }

  ProbedStack& stack() override { return *stack_; }

 private:
  void Remember(const std::string& commit, CommitRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_[commit] = std::move(record);
  }

  TxnCounters ReadTxnCounters() const {
    TxnCounters c;
    dl::Json snapshot = lake_->MetricsSnapshot();
    const dl::Json& counters = snapshot.Get("registry").Get("counters");
    for (size_t i = 0; i < counters.size(); ++i) {
      const std::string& name = counters[i].Get("name").as_string();
      double value = counters[i].Get("value").as_number();
      if (name == "version.txn.publish_fast_path") c.fast_path = value;
      if (name == "version.txn.publish_rebased") c.rebased = value;
      if (name == "version.txn.conflicts") c.conflicts = value;
      if (name == "version.txn.retries") c.retries = value;
    }
    return c;
  }

  /// Open loop: one relabel transaction every 1/kRelabelsPerSecond s,
  /// timed from when it was due.
  void RelabelLoop(int64_t start, int64_t deadline, std::vector<double>* ms,
                   std::vector<double>* lag_ms) {
    const double period_ns = 1e9 / kRelabelsPerSecond;
    for (uint64_t k = 0;; ++k) {
      int64_t due = start + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      if (due >= deadline) break;
      SleepUntil(due);
      lag_ms->push_back(static_cast<double>(NowNs() - due) / 1e6);
      dl::Rng rng(dl::Mix64(seed_ ^ (++relabels_ * 0xa0761d6478bd642full)));
      uint64_t op = Tracer::Global().NewId();
      bool ok = false;
      {
        ScopedSpan span("ingest.relabel_txn", op);
        for (int attempt = 0; attempt < kRelabelAttempts && !ok; ++attempt) {
          auto txn = lake_->BeginTxn("relabel");
          if (!txn.ok()) break;
          auto ds = (*txn)->dataset();
          if (!ds.ok() || (*ds)->NumRows() < kRelabelRows) break;
          uint64_t start_row = rng.Uniform((*ds)->NumRows() - kRelabelRows + 1);
          std::vector<int64_t> values;
          std::vector<dl::tsf::Sample> samples;
          for (uint64_t j = 0; j < kRelabelRows; ++j) {
            values.push_back(static_cast<int64_t>(rng.Uniform(kNumClasses)));
            samples.push_back(
                dl::tsf::Sample::Scalar(values.back(), dl::tsf::DType::kInt32));
          }
          dl::Status body_status;
          {
            ScopedSpan body("tsf.update");
            auto labels = (*ds)->GetTensor("labels");
            body_status = labels.ok()
                              ? (*labels)->UpdateContiguous(start_row, samples)
                              : labels.status();
          }
          if (!body_status.ok()) break;
          dl::Result<std::string> landed = dl::Status::Unknown("not run");
          {
            ScopedSpan publish("version.publish");
            landed = (*txn)->Publish("relabel");
          }
          if (landed.ok()) {
            Remember(*landed, CommitRecord{{}, start_row, std::move(values)});
            ok = true;
          } else if (!landed.status().IsConflict()) {
            break;
          } else if (attempt + 1 < kRelabelAttempts) {
            ++relabel_retries_;
          }
        }
      }
      ms->push_back(static_cast<double>(NowNs() - due) / 1e6);
      relabel_ok_.Count(ok);
    }
  }

  /// Open loop: one point read every 1/kReadsPerSecond s of a random row
  /// of the sealed head, timed from when it was due.
  void ReadLoop(int64_t start, int64_t deadline, std::vector<double>* ms,
                std::vector<double>* lag_ms) {
    const double period_ns = 1e9 / kReadsPerSecond;
    const std::vector<uint64_t> image_shape = gen_.ShapeOf(0);
    std::string pinned;
    std::shared_ptr<dl::tsf::Dataset> snapshot;
    std::vector<PointRead> done;
    for (uint64_t k = 0;; ++k) {
      int64_t due = start + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      if (due >= deadline) break;
      SleepUntil(due);
      lag_ms->push_back(static_cast<double>(NowNs() - due) / 1e6);
      dl::Rng rng(dl::Mix64(seed_ ^ (++reads_issued_ * 0xe7037ed1a0b428dbull)));
      ScopedSpan span("ingest.point_read", Tracer::Global().NewId());
      PointRead read;
      auto head = lake_->HeadCommit();
      if (head.ok() && *head != pinned) {
        ScopedSpan at("version.at");
        auto opened = lake_->At(*head);
        if (opened.ok()) {
          snapshot = *opened;
          pinned = *head;
        }
      }
      if (snapshot != nullptr && snapshot->NumRows() > 0) {
        read.commit = pinned;
        read.row = rng.Uniform(snapshot->NumRows());
        dl::Result<std::map<std::string, dl::tsf::Sample>> row =
            dl::Status::Unknown("not run");
        {
          ScopedSpan read_span("tsf.read_row");
          row = snapshot->ReadRow(read.row);
        }
        if (row.ok() && row->count("ids") && row->count("labels") &&
            row->count("images")) {
          read.id = row->at("ids").AsInt();
          read.label = row->at("labels").AsInt();
          read.ok = row->at("images").shape.dims() == image_shape;
        }
      }
      ms->push_back(static_cast<double>(NowNs() - due) / 1e6);
      done.push_back(std::move(read));
    }
    std::lock_guard<std::mutex> lock(mu_);
    reads_.insert(reads_.end(), done.begin(), done.end());
  }

  const uint64_t seed_;
  const dl::sim::WorkloadGenerator gen_;
  std::unique_ptr<ProbedStack> stack_;
  std::shared_ptr<dl::DeepLake> lake_;
  std::string seed_commit_;
  std::vector<RowState> seed_state_;
  int64_t next_id_ = 0;
  uint64_t relabels_ = 0;         // relabeler thread only
  uint64_t relabel_retries_ = 0;  // relabeler thread only, in a phase
  uint64_t reads_issued_ = 0;     // reader thread only
  // Per-thread outcomes, merged into the run's outcome after the join.
  Outcome append_ok_, relabel_ok_;
  uint64_t phase_user_bytes_ = 0;
  TxnCounters txn_delta_;

  std::mutex mu_;  // guards the two members below
  std::map<std::string, CommitRecord> records_;
  std::vector<PointRead> reads_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestRelabel(const Options& options) {
  return std::make_unique<IngestRelabel>(options);
}

}  // namespace perfbench
