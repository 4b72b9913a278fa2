#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

// In-memory spans for the traced run: name, start, end and parent, kept
// in a vector and written out once when the run ends. Spans are recorded
// by the load generator around its calls into each layer; the program
// itself is not instrumented. Single-threaded.

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when tracing is off).
  int Begin(const char* name, int parent = -1);
  void End(int id);
  /// Records a span whose start and end were timed by the caller.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int parent);

  size_t size() const { return spans_.size(); }
  /// Writes the spans as one JSON array. False on an I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
