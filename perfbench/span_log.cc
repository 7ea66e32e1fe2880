#include "span_log.h"

#include <cstdio>

namespace vbbench {

SpanLog::SpanLog(std::uint64_t trace_id)
    : trace_id_(trace_id), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.trace_id = trace_id_;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void SpanLog::end(std::uint64_t id) {
  // Closing an outer span also closes any inner one left open, so the log
  // stays well nested even if a scope is skipped.
  std::int64_t t = now_ns();
  while (!open_.empty()) {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ns = t;
    if (s.id == id) break;
  }
}

double SpanLog::total_s(std::string_view name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) t += s.seconds();
  }
  return t;
}

std::size_t SpanLog::count(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ++n;
  }
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& s : spans_) {
    ok = std::fprintf(f,
                      "{\"name\": \"%s\", \"trace_id\": %llu, \"id\": %llu, "
                      "\"parent\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                      s.name, static_cast<unsigned long long>(s.trace_id),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns)) > 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace vbbench
