#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Timing, process-resource and result plumbing shared by the workloads.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();

/// The process's resident-set high-water mark (VmHWM), in MB.
double PeakRssMb();

/// Linearly interpolated quantile (numpy's default) of `values`, q in
/// [0, 1]. Returns 0 for an empty input.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// SplitMix64 finaliser over (a, b): derives independent sub-seeds from
/// the workload seed.
uint64_t MixSeed(uint64_t a, uint64_t b);

/// Throughput and CPU cost sampled at operation boundaries of a timed
/// section, summarised as medians over consecutive windows of at least
/// `window_seconds`, so a transient stall on a shared host moves one
/// window, not the run's figure.
class WindowedRate {
 public:
  explicit WindowedRate(double window_seconds) : window_(window_seconds) {}

  /// Marks the start of the timed section.
  void Start();
  /// Records that `units` more work units completed just now.
  void Add(uint64_t units);

  /// Median over windows of units per wall second.
  double MedianUnitsPerSecond() const;
  /// Median over windows of CPU milliseconds per unit.
  double MedianCpuMsPerUnit() const;

  /// Units per second of each window, in order (for the run log).
  std::vector<double> WindowRates() const;

  uint64_t total_units() const { return total_units_; }
  double total_seconds() const { return total_seconds_; }
  size_t num_windows() const { return windows_.size(); }

 private:
  struct Window {
    double seconds = 0.0;
    double cpu_seconds = 0.0;
    uint64_t units = 0;
  };
  double window_;
  Clock::time_point start_;
  Clock::time_point window_start_;
  double window_cpu_start_ = 0.0;
  uint64_t window_units_ = 0;
  uint64_t total_units_ = 0;
  double total_seconds_ = 0.0;
  std::vector<Window> windows_;
};

/// One benchmark result: the correctness verdict, operation counts and
/// named metrics, printed as the final JSON line of a run.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run is then not correct.
  void Fail(const std::string& what);
  /// Records a check failure message when `error` is non-empty.
  void Check(const std::string& error) {
    if (!error.empty()) Fail(error);
  }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
