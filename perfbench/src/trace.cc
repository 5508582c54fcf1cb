#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

Tracer::SpanId Tracer::Begin(const char* name, SpanId parent,
                             uint64_t request) {
  const int64_t now = Nanos(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, request});
  return static_cast<SpanId>(spans_.size());
}

void Tracer::End(SpanId id) {
  const int64_t now = Nanos(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

Tracer::SpanId Tracer::Record(const char* name, Clock::time_point start,
                              Clock::time_point end, SpanId parent,
                              uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, Nanos(start), Nanos(end), parent, request});
  return static_cast<SpanId>(spans_.size());
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans_[span.parent - 1];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[span.parent - 1].push_back({lo, hi});
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    const int64_t total_ns = spans_[i].end_ns - spans_[i].start_ns;
    SelfTime& entry = by_name[spans_[i].name];
    entry.name = spans_[i].name;
    entry.count += 1;
    entry.total_ms += 1e-6 * static_cast<double>(total_ns);
    entry.self_ms += 1e-6 * static_cast<double>(total_ns - union_ns);
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(std::move(entry));
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
