#include "trace.h"

#include <chrono>
#include <cstdio>

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id >= 0) spans_[id].end_ns = NowNs();
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    int parent) {
  if (enabled_) spans_.push_back({name, start_ns, end_ns, parent});
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace servebench
