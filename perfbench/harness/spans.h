#pragma once
// In-memory span recorder for the traced run.
//
// A span is one timed call from the benchmark into the program: name,
// start, end (steady-clock seconds) and the index of its parent span (-1
// for a root).  Spans are appended to a preallocated vector and only
// written out when the run ends, so recording costs two clock reads and
// one push.  A span's self time is its duration minus the part of that
// interval covered by its child spans (the union of the children's
// intervals, clipped to the parent), so overlapping or out-of-bounds
// children are never double-counted.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 1 << 16) {
    spans_.reserve(reserve);
  }

  /// Opens a span under the innermost open span; returns its index.
  long open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<long>(spans_.size() - 1));
    return stack_.back();
  }
  /// Closes the innermost open span.
  void close() {
    const double t = now_s();
    spans_[static_cast<std::size_t>(stack_.back())].end = t;
    stack_.pop_back();
  }
  /// Records an already-timed span (the self-tests build trees this way).
  long add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<long>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
      bool open_iv = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, p.start);
        hi = std::min(hi, p.end);
        if (hi <= lo) continue;
        if (open_iv && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open_iv) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open_iv = true;
        }
      }
      if (open_iv) covered += cur_hi - cur_lo;
      out[i] = p.duration() - covered;
    }
    return out;
  }

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (s.name == name) out.push_back(s.duration());
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name) : rec_(rec) {
    rec_.open(std::move(name));
  }
  ~ScopedSpan() { rec_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

}  // namespace perfbench
