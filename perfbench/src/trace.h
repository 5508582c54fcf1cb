#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around each call into a layer of the
// program; nothing inside the program is instrumented by it.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  using SpanId = uint32_t;
  static constexpr SpanId kNoParent = 0;

  struct Span {
    const char* name = nullptr;  // a string literal
    int64_t start_ns = 0;        // since the tracer's epoch
    int64_t end_ns = 0;
    SpanId parent = kNoParent;
    uint64_t request = 0;  // user id, frame seq or batch index
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span and returns its id (ids start at 1).
  SpanId Begin(const char* name, SpanId parent, uint64_t request);
  void End(SpanId id);

  /// Records an already-measured interval; returns its id.
  SpanId Record(const char* name, Clock::time_point start,
                Clock::time_point end, SpanId parent, uint64_t request);

  /// Per-name self time: each span's duration minus the part of its
  /// interval that its children cover (children may run on other
  /// threads and overlap one another, so their union is subtracted).
  struct SelfTime {
    std::string name;
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<SelfTime> SelfTimes() const;

  /// Writes every span as a tab-separated line:
  /// id, name, start_ns, end_ns, parent, request.
  bool WriteTsv(const std::string& path) const;

  size_t size() const;

 private:
  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // span id i lives at spans_[i - 1]
};

/// RAII span; a null tracer makes it a no-op without clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             Tracer::SpanId parent = Tracer::kNoParent, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Tracer::SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
