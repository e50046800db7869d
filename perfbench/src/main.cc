// lakebench: runs one benchmark workload and prints its metrics.
//
//   lakebench --workload <epoch-jpeg-local|view-raw-s3|ingest-relabel>
//             --seed N --seconds S --trace <0|1>
//             [--inject wrong-byte|storage-fault]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
// carrying the end-to-end metrics when --trace is 0 and the per-layer
// metrics when it is 1. perfbench/README.md explains each one.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/workload.h"
#include "workload.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "1/s"},
    {"setup_s", "s"},
    {"cpu_ms_per_sample", "ms"},
    {"peak_rss_mb", "MB"},
};

// A metric that does not apply to a workload reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"first_batch_ms", "ms"},
    {"query_ms", "ms"},
    {"ingest_samples_per_s", "1/s"},
    {"append_commit_ms_p50", "ms"},
    {"append_commit_ms_p90", "ms"},
    {"relabel_commit_ms_p50", "ms"},
    {"point_read_ms_p50", "ms"},
    {"point_read_ms_p99", "ms"},
    {"failed_op_share", "ratio"},
    {"compress.lz77_decode_us_per_sample", "us"},
    {"compress.unfilter_us_per_sample", "us"},
    {"compress.image_encode_us_per_sample", "us"},
    {"tsf.append_us_per_sample", "us"},
    {"tsf.read_row_ms", "ms"},
    {"stream.stall_share", "ratio"},
    {"stream.fetch_ms", "ms"},
    {"stream.decode_ms", "ms"},
    {"stream.units", "count"},
    {"stream.rows_per_unit", "count"},
    {"storage.get.count", "count/sample"},
    {"storage.get_range.count", "count/sample"},
    {"storage.put.count", "count/sample"},
    {"storage.bytes_read_per_sample", "B"},
    {"storage.rows_per_chunk_fetch", "count"},
    {"storage.read_busy_ms", "ms/sample"},
    {"storage.bytes_written_per_user_byte", "ratio"},
    {"storage.errors", "count"},
    {"sim.net_wait_ms", "ms/sample"},
    {"tql.parse_us", "us"},
    {"tql.execute_ms", "ms"},
    {"tql.rows_examined_per_result", "ratio"},
    {"version.publish_ms", "ms"},
    {"version.rebased_share", "ratio"},
    {"version.conflicts", "1/txn"},
    {"version.retries", "1/txn"},
    {"bench.schedule_lag_ms_p99", "ms"},
    {"obs.trace_overhead_share", "ratio"},
};

/// FNV-1a over the generator's first samples for `seed`: every workload
/// draws its inputs from this generator, so a different seed shows up as a
/// different digest.
uint64_t InputDigest(uint64_t seed) {
  dl::sim::WorkloadGenerator gen(dl::sim::WorkloadGenerator::SmallJpeg(), seed);
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (uint64_t i = 0; i < 4; ++i) {
    dl::sim::SampleSpec s = gen.Generate(i);
    for (uint8_t b : s.pixels) mix(b);
    mix(static_cast<uint64_t>(s.label));
  }
  return h;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "lakebench: %s\nusage: lakebench --workload "
               "<epoch-jpeg-local|view-raw-s3|ingest-relabel> --seed N "
               "--seconds S --trace <0|1> "
               "[--inject wrong-byte|storage-fault]\n",
               why);
  return 2;
}

template <size_t N>
void PrintMetrics(const MetricDef (&defs)[N], const Metrics& values) {
  for (size_t i = 0; i < N; ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() || !std::isfinite(it->second) ? 0
                                                                 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--inject") {
      options.inject = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  if (!options.inject.empty() && options.inject != "wrong-byte" &&
      options.inject != "storage-fault") {
    return Usage("unknown --inject mode");
  }
  std::unique_ptr<Workload> workload;
  if (options.workload == "epoch-jpeg-local") {
    workload = MakeEpochJpegLocal(options);
  } else if (options.workload == "view-raw-s3") {
    workload = MakeViewRawS3(options);
  } else if (options.workload == "ingest-relabel") {
    workload = MakeIngestRelabel(options);
  } else {
    return Usage("unknown workload");
  }

  std::printf("lakebench %s seed=%llu inputs=%016llx\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(InputDigest(options.seed)));
  std::fflush(stdout);

  Outcome outcome;
  dl::Status st = RunWorkload(*workload, options, &outcome);
  if (!st.ok()) {
    std::fprintf(stderr, "lakebench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  if (options.trace) {
    PrintMetrics(kPerLayer, outcome.metrics);
  } else {
    PrintMetrics(kEndToEnd, outcome.metrics);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
