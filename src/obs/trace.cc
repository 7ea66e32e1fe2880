#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace vb::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buf_.reserve(capacity_);
}

void TraceRecorder::record(double ts_s, Phase phase, std::uint64_t trace_id,
                           int node, const char* name, const char* cat,
                           const char* arg0_name, double arg0,
                           const char* arg1_name, double arg1) {
  TraceEvent e;
  e.ts_s = ts_s;
  e.phase = phase;
  e.trace_id = trace_id;
  e.node = node;
  e.name = name;
  e.cat = cat;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  ++total_;
  if (buf_.size() < capacity_) {
    buf_.push_back(e);
    return;
  }
  buf_[head_] = e;
  head_ = (head_ + 1) % capacity_;
}

void TraceRecorder::clear() {
  buf_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  for (std::size_t k = 0; k < buf_.size(); ++k) {
    out.push_back(buf_[buf_.size() < capacity_ ? k : (head_ + k) % capacity_]);
  }
  return out;
}

namespace {

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

void append_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{";
  bool first = true;
  if (e.arg0_name != nullptr) {
    os << '"' << json_escape(e.arg0_name) << "\":" << fmt_num(e.arg0);
    first = false;
  }
  if (e.arg1_name != nullptr) {
    if (!first) os << ',';
    os << '"' << json_escape(e.arg1_name) << "\":" << fmt_num(e.arg1);
  }
  os << '}';
}

}  // namespace

void TraceRecorder::export_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat) << "\",";
    // Spans are Chrome *async* events (ph b/e, matched by id): a chain's
    // begin and end fire on different hosts, which synchronous B/E pairs
    // cannot express.  Instants with a trace id become async instants (n)
    // on the same track; id-less instants are plain thread instants (i).
    char ph = 'i';
    if (e.phase == Phase::kBegin) {
      ph = 'b';
    } else if (e.phase == Phase::kEnd) {
      ph = 'e';
    } else if (e.trace_id != 0) {
      ph = 'n';
    }
    os << "\"ph\":\"" << ph << "\",";
    if (ph != 'i') {
      os << "\"id\":\"0x" << std::hex << e.trace_id << std::dec << "\",";
    } else {
      os << "\"s\":\"t\",";
    }
    os << "\"ts\":" << fmt_num(e.ts_s * 1e6) << ",\"pid\":0,\"tid\":" << e.node
       << ",";
    append_args(os, e);
    os << "}";
  }
  os << "\n]}\n";
}

std::string TraceRecorder::chrome_json() const {
  std::ostringstream os;
  export_chrome_json(os);
  return os.str();
}

void TraceRecorder::export_jsonl(std::ostream& os) const {
  for (const TraceEvent& e : snapshot()) {
    os << "{\"ts_s\":" << fmt_num(e.ts_s) << ",\"ph\":\""
       << static_cast<char>(e.phase) << "\",\"trace_id\":" << e.trace_id
       << ",\"node\":" << e.node << ",\"name\":\"" << json_escape(e.name)
       << "\",\"cat\":\"" << json_escape(e.cat) << "\",";
    append_args(os, e);
    os << "}\n";
  }
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  export_chrome_json(f);
  return static_cast<bool>(f);
}

bool TraceRecorder::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  export_jsonl(f);
  return static_cast<bool>(f);
}

bool TraceRecorder::write(const std::string& path) const {
  if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0) {
    return write_jsonl(path);
  }
  return write_chrome_json(path);
}

const char* TraceRecorder::intern(const std::string& s) {
  return interned_.insert(s).first->c_str();
}

template <class IO>
void TraceRecorder::ckpt_io(IO& io) {
  io.section("trace", [&] {
    std::uint64_t capacity = capacity_;
    io.u64(capacity);
    io.loading([&] {
      if (capacity != capacity_) {
        throw ckpt::CkptError(
            "trace restore: recorder capacity mismatch — reconstruct the "
            "recorder with the original capacity");
      }
    });
    std::uint64_t head = head_;
    std::uint64_t size = buf_.size();
    io.u64(head);
    io.u64(size);
    io.u64(total_);
    io.u64(next_id_);
    io.loading([&] {
      if (size > capacity_ || head >= capacity_) {
        throw ckpt::CkptError("trace restore: ring counters out of range");
      }
      head_ = head;
      buf_.reserve(capacity_);
      buf_.assign(size, TraceEvent{});
    });
    auto text = [&](const char*& s) {
      std::string v = IO::kLoading ? std::string() : std::string(s);
      io.str(v);
      io.loading([&] { s = intern(v); });
    };
    auto opt_text = [&](const char*& s) {
      bool present = s != nullptr;
      io.boolean(present);
      if (present) text(s);
    };
    // Storage order, not chronological order: restoring buf_ verbatim (plus
    // head_) makes every later overwrite land in the same slot.
    for (TraceEvent& e : buf_) {
      io.f64(e.ts_s);
      io.u64(e.trace_id);
      io.u32(e.node);
      io.u8(e.phase);
      text(e.name);
      text(e.cat);
      opt_text(e.arg0_name);
      io.f64(e.arg0);
      opt_text(e.arg1_name);
      io.f64(e.arg1);
    }
  });
}

template void TraceRecorder::ckpt_io(ckpt::Writer&);
template void TraceRecorder::ckpt_io(ckpt::Reader&);

}  // namespace vb::obs
