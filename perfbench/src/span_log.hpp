// In-memory span buffer for the benchmark's traced replay.
//
// The benchmark times calls into the simulator's public functions from the
// outside: each timed call (or run of consecutive calls to the same
// function) becomes one span carrying its name, start, end, the sample it
// belongs to, the NN layer (graph node) it ran for, and its nesting depth
// (sample = 0, layer = 1, stage = 2). Spans stay in memory while the replay
// runs and are written out when the run ends; self times (a span's duration
// minus the part its children cover) are computed from them afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layer value for spans not tied to one NN layer (the per-sample span).
inline constexpr std::uint32_t kNoLayer = 0xFFFFFFFFu;

struct SpanRec {
  const char* name = "";  // static string
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t sample = 0;
  std::uint32_t layer = kNoLayer;  // graph node index
  std::uint32_t depth = 0;
  std::uint32_t calls = 1;  // public calls covered by the span

  std::uint64_t duration_ns() const { return t1_ns - t0_ns; }
};

class SpanLog {
 public:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void add(const SpanRec& r) { spans_.push_back(r); }
  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Self time of every span (same order as spans()): its duration minus
  /// the union of its direct children's intervals. A child is the next
  /// deeper span of the same sample that starts inside the parent.
  std::vector<std::uint64_t> self_times_ns() const;

  /// Median duration of an empty span on this host: the clock-read cost
  /// that every recorded duration includes once.
  static double empty_span_ns();

  /// Writes every span as CSV (name,sample,layer,depth,calls,t0_ns,t1_ns,
  /// self_ns), with times relative to the first span.
  void write_csv(const std::string& path) const;

 private:
  std::vector<SpanRec> spans_;
};

/// RAII span: stamps the start at construction and appends the record to
/// `log` at destruction. A null log records nothing (untraced replay).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t sample,
             std::uint32_t layer, std::uint32_t depth,
             std::uint32_t calls = 1)
      : log_(log) {
    if (log_ == nullptr) return;
    rec_.name = name;
    rec_.sample = sample;
    rec_.layer = layer;
    rec_.depth = depth;
    rec_.calls = calls;
    rec_.t0_ns = SpanLog::now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    rec_.t1_ns = SpanLog::now_ns();
    log_->add(rec_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanRec rec_;
};

}  // namespace perfbench
