#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

namespace pb {

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch_)
          .count());
}

std::int64_t SpanLog::open(const char* name, std::uint64_t id) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, id});
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

double SpanLog::total_s(const std::string& name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_)
    if (name == s.name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::write(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "wb"), std::fclose);
  if (!f) return false;
  for (const Span& s : spans_)
    std::fprintf(f.get(), "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%lld,\"id\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  return std::ferror(f.get()) == 0;
}

}  // namespace pb
