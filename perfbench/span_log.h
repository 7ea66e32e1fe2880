// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call the benchmark makes into a layer of the simulator:
// its name, host-time start and end, the span that was open when it began
// (its parent), and the trace id shared by every span of one workload run.
// Spans stay in memory while the workload runs and are written out as JSON
// lines once it ends, so recording costs two clock reads and one vector
// append per span.
//
// Untraced runs pass a null SpanLog*; SpanScope is then a no-op, so the same
// code path serves both runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vbbench {

struct Span {
  const char* name = "";  ///< string literal; spans never own their name
  std::uint64_t trace_id = 0;
  std::uint64_t id = 0;      ///< 1-based, unique within the log
  std::uint64_t parent = 0;  ///< 0: root span
  std::int64_t start_ns = 0;  ///< host time since the log was created
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t trace_id);

  /// Opens a span as a child of the innermost open one; returns its id.
  std::uint64_t begin(const char* name);
  /// Closes span `id` and any span opened inside it that is still open.
  void end(std::uint64_t id);

  /// Sum of the durations of the spans called `name`, in seconds.
  double total_s(std::string_view name) const;
  /// Number of spans called `name`.
  std::size_t count(std::string_view name) const;

  /// One JSON object per span: {"name", "trace_id", "id", "parent",
  /// "start_ns", "end_ns"}.  Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::uint64_t trace_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, innermost last
};

/// RAII span: begins on construction and ends on destruction.  A null log
/// records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->begin(name) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

}  // namespace vbbench
