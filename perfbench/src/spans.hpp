#pragma once
// In-memory span log for the traced per-layer run.  Spans are recorded by
// the harness thread around calls into the program's modules and written
// out once, when the run ends; nothing is written while timing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

class SpanLog {
 public:
  struct Span {
    const char* name;  ///< static string
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  ///< index of the enclosing span, -1 at top level
    std::uint64_t id;     ///< net index or request number
  };

  /// Opens a span nested in the innermost open one; returns its index.
  std::int64_t open(const char* name, std::uint64_t id);
  void close(std::int64_t index);

  /// Sum of durations of spans named `name`, seconds.  The harness's
  /// layer spans are leaves, so this is also their self time.
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Writes one JSON object per line: name, start/end (ns), parent, id.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::uint64_t id = 0)
      : log_(log), index_(log.open(name, id)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

}  // namespace pb
