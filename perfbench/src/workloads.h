#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <malloc.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status_or.h"
#include "core/ngram_domain.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Worker threads of every engine and collector: 2 in the benchmark,
  /// other counts for thread-scaling sweeps.
  size_t threads = 2;
  /// Directory for the run's files (journal, span dump); created by the
  /// caller and inside the checkout.
  std::string work_dir = ".";
};

/// Set-up repetitions per run; setup_s is their median. A city set-up
/// takes seconds, so three; the campus one takes about 0.04 s and varies
/// by half between set-ups, so nine.
inline constexpr int kCitySetupRepetitions = 3;
inline constexpr int kCampusSetupRepetitions = 9;

/// The end-to-end metrics, reported with tracing off.
struct EndToEnd {
  double release_users_per_s = 0.0;
  double reports_per_s = 0.0;
  double cpu_ms_per_user = 0.0;
  double ack_latency_p50_ms = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
};

/// What a workload run produces: the end-to-end figures, the per-layer
/// figures (filled in traced runs; a layer a workload never calls reads
/// 0), the operation counts and the output-check verdict.
struct Outcome {
  EndToEnd e2e;
  std::map<std::string, double> layers;
  Result result;
  Tracer* tracer = nullptr;  // set in traced runs
};

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// Sets core.domain.row_hit_ratio and core.domain.rows_computed from the
/// domain's cache counters before and after the timed section.
void RecordDomainCache(const trajldp::core::CacheStats& before,
                       const trajldp::core::CacheStats& after, Outcome* out);

void RunCityBatch(const RunOptions& options, Outcome* out);
void RunCampusWire(const RunOptions& options, Outcome* out);
void RunCityPerturb(const RunOptions& options, Outcome* out);

/// Runs `make` `repetitions` times, dropping each instance before
/// building the next, and keeps the last. `*median_seconds` is the
/// median set-up time: one build of a big world varies by ±25% on a
/// shared host, the median of three much less. Heap memory a dropped
/// instance freed is handed back to the system (malloc_trim) before the
/// next set-up, so the kept instance's footprint, and the run's peak
/// RSS, do not depend on how the dropped ones fragmented the heap.
template <typename T, typename Make>
trajldp::StatusOr<std::unique_ptr<T>> RepeatSetup(Make make, int repetitions,
                                                  double* median_seconds) {
  std::unique_ptr<T> kept;
  std::vector<double> seconds;
  for (int rep = 0; rep < repetitions; ++rep) {
    kept.reset();
    malloc_trim(0);
    const Clock::time_point start = Clock::now();
    trajldp::StatusOr<std::unique_ptr<T>> made = make();
    if (!made.ok()) return made.status();
    seconds.push_back(SecondsSince(start));
    kept = std::move(*made);
  }
  *median_seconds = Median(seconds);
  std::cout << "peak RSS after set-up: " << PeakRssMb() << " MB\n";
  return kept;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
