// In-memory span recorder for the traced run, written out at the end as
// Chrome trace-event JSON (opens in about:tracing or Perfetto offline).
//
// Spans are recorded only around the benchmark's own calls into the
// library; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    int id = 0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  int begin(std::string name, std::string layer) {
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.start_ns = now_ns();
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Closes the innermost open span, attaching `args`; returns its
  /// duration in seconds.
  double end(std::vector<std::pair<std::string, double>> args = {}) {
    Span& span = spans_.at(static_cast<std::size_t>(open_.back()));
    open_.pop_back();
    span.dur_ns = now_ns() - span.start_ns;
    span.args = std::move(args);
    return double(span.dur_ns) * 1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
