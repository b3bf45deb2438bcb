// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public functions; the
// program itself carries no tracing. A span has a name, a start, an end and
// a parent (the span open when it began), so nesting follows the call tree
// of the single thread that records it.
//
// Spans stay in memory until the run ends; write() dumps them as TSV
// (id, parent, name, start_ns, end_ns) and totals() folds them per name
// into count, total time and self time (duration minus the time covered by
// direct children).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace qbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// RAII span: opened in the constructor, closed in the destructor.
  class Scope {
   public:
    Scope(Tracer& t, std::uint32_t name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_;
  };

  /// Interns a span name; call once per name, outside hot loops.
  std::uint32_t name(const std::string& n);

  std::int32_t open(std::uint32_t name);
  void close(std::int32_t id);

  /// Per-name count / total / self time over all spans recorded so far.
  std::map<std::string, Totals> totals() const;
  /// Duration of span `id` in seconds.
  double seconds(std::int32_t id) const;

  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Calls f() inside a span named `name`, or plainly when `t` is null.
template <typename F>
auto in_span(Tracer* t, std::uint32_t name, F&& f) {
  if (t == nullptr) return f();
  Tracer::Scope scope(*t, name);
  return f();
}

}  // namespace qbench
