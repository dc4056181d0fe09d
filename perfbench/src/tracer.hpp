// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark's own code around its calls into each library layer; each span
// keeps its name, start, end, parent and thread, and the whole set is
// written out as one Chrome trace (chrome://tracing, Perfetto) at the end of
// the run. Counts are recorded at the same boundaries as counter events.
//
// A disabled tracer records nothing: every call returns at its first branch,
// so the untraced run pays one predictable test per boundary.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on that thread. Returns -1 when disabled.
  int begin(const char* name);
  void end(int id);

  /// Records a finished span with explicit bounds (e.g. a request timed from
  /// its due time, or a device launch reported by the library's recorder).
  int add(const char* name, Clock::time_point start, Clock::time_point stop,
          int parent, long arg = -1);

  /// Counter event at the current time.
  void count(const char* name, double value);

  std::size_t span_count() const;
  /// Number of spans whose name starts with `prefix`.
  std::size_t spans_with_prefix(const std::string& prefix) const;

  /// Writes every span and counter as Chrome trace JSON; false on I/O error.
  bool write_chrome(const std::string& path) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  struct Span {
    const char* name;
    double start_us, end_us;
    int parent;
    unsigned tid;
    long arg;
  };
  struct Counter {
    const char* name;
    double ts_us;
    double value;
  };

  double us(Clock::time_point t) const { return micros_between(epoch_, t); }
  /// Innermost span open on the calling thread (-1 when none).
  static int current();

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<Span> spans_;        // guarded by m_
  std::vector<Counter> counters_;  // guarded by m_
};

}  // namespace perfbench
