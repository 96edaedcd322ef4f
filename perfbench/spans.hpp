#pragma once
/// \file spans.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// A span is one call from the benchmark into a layer of the simulator:
/// its name is `<layer>:<call>` (e.g. `ncsend/plan:compile_cell`), it
/// has a start and end on the host's steady clock, the span that was
/// open when it began (its parent) and the id of the benchmark unit it
/// belongs to.  Spans stay in memory and are written out once, at exit.
/// A layer's self time is the sum of its spans' durations minus the
/// part of each covered by child spans.

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the steady clock.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;  ///< `<layer>:<call>`
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int unit = -1;    ///< benchmark unit id, -1 outside units
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  /// Open a span nested in the innermost open one; returns its index.
  int open(std::string name);
  /// Close span `id` (must be the innermost open span).
  void close(int id);
  /// Unit id stamped on spans opened from now on (-1: none).
  void set_unit(int unit) noexcept { unit_ = unit; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self seconds per layer (the span name up to its ':').
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;
  /// All spans as one JSON document.
  void write_json(std::ostream& os) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int unit_ = -1;
};

/// RAII span; a null tracer records nothing, so untraced code paths
/// share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string name)
      : t_(t), id_(t != nullptr ? t->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
