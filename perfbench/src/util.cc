#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void WindowedRate::Start() {
  start_ = window_start_ = Clock::now();
  window_cpu_start_ = ProcessCpuSeconds();
}

void WindowedRate::Add(uint64_t units) {
  window_units_ += units;
  total_units_ += units;
  const Clock::time_point now = Clock::now();
  total_seconds_ = SecondsBetween(start_, now);
  const double elapsed = SecondsBetween(window_start_, now);
  if (elapsed < window_) return;
  const double cpu = ProcessCpuSeconds();
  windows_.push_back({elapsed, cpu - window_cpu_start_, window_units_});
  window_start_ = now;
  window_cpu_start_ = cpu;
  window_units_ = 0;
}

std::vector<double> WindowedRate::WindowRates() const {
  std::vector<double> rates;
  for (const Window& w : windows_) rates.push_back(w.units / w.seconds);
  return rates;
}

double WindowedRate::MedianUnitsPerSecond() const {
  return Median(WindowRates());
}

double WindowedRate::MedianCpuMsPerUnit() const {
  std::vector<double> costs;
  for (const Window& w : windows_) {
    costs.push_back(1e3 * w.cpu_seconds / static_cast<double>(w.units));
  }
  return Median(std::move(costs));
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Fail(const std::string& what) { failures_.push_back(what); }

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit the measurement has.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
