// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload city_batch|campus_wire|city_perturb --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--threads N]
//
// --threads sets the engine/collector worker count (default 2, what the
// benchmark runs); other values serve thread-scaling sweeps.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every output check passed.

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"core.perturb.us_per_user", "us"},
      {"core.prep.us_per_user", "us"},
      {"core.viterbi.us_per_user", "us"},
      {"core.poi.us_per_user", "us"},
      {"core.other.us_per_user", "us"},
      {"core.poi.attempts_per_user", "count"},
      {"core.engine.busy_ratio", "ratio"},
      {"core.domain.row_hit_ratio", "ratio"},
      {"core.domain.rows_computed", "count"},
      {"collector.queue_wait_ms_p50", "ms"},
      {"collector.queue_wait_ms_p99", "ms"},
      {"collector.queue_high_water", "count"},
      {"collector.decode_us_p50", "us"},
      {"collector.reconstruct_ms_p50", "ms"},
      {"io.wire.encode_us_per_frame", "us"},
      {"io.wire.bytes_per_report", "bytes"},
      {"io.journal.append_us_p50", "us"},
      {"io.journal.sync_us_p99", "us"},
      {"io.journal.fsyncs_per_frame", "count"},
      {"net.reactor.wakeups_per_frame", "count"},
      {"net.ingest.frames", "count"},
      {"net.generator.send_us_p50", "us"},
      {"net.generator.lateness_ms_p99", "ms"},
      {"analytics.consume_us_per_release", "us"},
      {"obs.scrape_ms_p50", "ms"},
  };
  return kNames;
}

void RecordDomainCache(const trajldp::core::CacheStats& before,
                       const trajldp::core::CacheStats& after, Outcome* out) {
  const double hits = static_cast<double>(
      (after.weight_hits + after.suffix_hits) -
      (before.weight_hits + before.suffix_hits));
  const double misses = static_cast<double>(
      (after.weight_misses + after.suffix_misses) -
      (before.weight_misses + before.suffix_misses));
  out->layers["core.domain.row_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out->layers["core.domain.rows_computed"] = misses;
}

namespace {

int Usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload city_batch|campus_wire|"
               "city_perturb --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--threads N]\n";
  return 2;
}

void PrintEndToEnd(const EndToEnd& e, Result* result) {
  result->Add("release_users_per_s", e.release_users_per_s, "1/s");
  result->Add("reports_per_s", e.reports_per_s, "1/s");
  result->Add("cpu_ms_per_user", e.cpu_ms_per_user, "ms");
  result->Add("ack_latency_p50_ms", e.ack_latency_p50_ms, "ms");
  result->Add("peak_rss_mb", e.peak_rss_mb, "MB");
  result->Add("setup_s", e.setup_s, "s");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (options.threads == 0) return Usage("--threads must be positive");

  void (*run)(const RunOptions&, Outcome*) = nullptr;
  if (options.workload == "city_batch") run = RunCityBatch;
  if (options.workload == "campus_wire") run = RunCampusWire;
  if (options.workload == "city_perturb") run = RunCityPerturb;
  if (run == nullptr) return Usage("unknown workload");

  Tracer tracer;
  Outcome outcome;
  if (options.trace) outcome.tracer = &tracer;
  run(options, &outcome);
  if (outcome.result.attempted == 0) outcome.result.Fail("no operation ran");

  // The other mode's figures, for the record (tracing overhead, layer
  // figures of an untraced run).
  Result info;
  if (options.trace) {
    PrintEndToEnd(outcome.e2e, &info);
  } else {
    for (const auto& [name, unit] : LayerMetricNames()) {
      info.Add(name, outcome.layers[name], unit);
    }
  }
  std::cout << "info " << info.ToJson() << "\n";

  if (options.trace) {
    std::cout << "self time by span name (ms): name count total self\n";
    for (const auto& st : tracer.SelfTimes()) {
      std::cout << "selftime " << st.name << " " << st.count << " "
                << std::fixed << std::setprecision(3) << st.total_ms << " "
                << st.self_ms << "\n";
    }
    std::cout.unsetf(std::ios::floatfield);
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".tsv";
    if (tracer.WriteTsv(path)) {
      std::cout << "spans " << tracer.size() << " written to " << path << "\n";
    }
  }
  for (const std::string& failure : outcome.result.failures()) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  Result& result = outcome.result;
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetricNames()) {
      result.Add(name, outcome.layers[name], unit);
    }
  } else {
    PrintEndToEnd(outcome.e2e, &result);
  }
  std::cout << result.ToJson() << std::endl;
  return result.correct() ? 0 : 1;
}
