// vbbench: runs one rep of one benchmark workload (see README.md).
//
//   vbbench --workload <name> --seed <n> --mode <plain|decorated|traced>
//           [--spans-out <path>]
//
// A rep builds a fresh cloud from the seed, runs the workload's timed window
// and checks the outputs.  `decorated` also installs the embedder timing
// decorator and takes a checkpoint round trip; `traced` also records spans,
// computes the per-layer metrics, and writes the spans to --spans-out as
// JSON lines.  run.py runs each rep in a process of its own and turns the
// reps of one benchmark run into the reported metrics.
//
// The last line of standard output is the rep's result as one JSON object.
// Failed output checks are listed in its "errors" array; the exit code is
// non-zero only when the rep could not run at all.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "span_log.h"
#include "workloads.h"

using namespace vbbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "plain";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vbbench: %s\nusage: vbbench --workload <name> --seed <n> "
               "--mode <plain|decorated|traced> [--spans-out <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      try {
        a.seed = std::stoull(value);
      } catch (const std::logic_error&) {
        usage("bad seed " + value);
      }
    } else if (key == "--mode") {
      a.mode = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.mode != "plain" && a.mode != "decorated" && a.mode != "traced") {
    usage("unknown mode " + a.mode);
  }
  return a;
}

// Workload and metric names are plain identifiers, so only error messages
// can need escaping.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload " + args.workload);

  std::unique_ptr<SpanLog> log;
  if (args.mode == "traced") {
    // One trace id per (workload, seed): FNV-1a over both.
    std::uint64_t id = 1469598103934665603ULL ^ args.seed;
    for (char c : args.workload) {
      id = (id ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    log = std::make_unique<SpanLog>(id);
  }

  RepConfig rc;
  rc.seed = args.seed;
  rc.instrumented = args.mode != "plain";
  rc.spans = log.get();
  RepResult r;
  try {
    SpanScope root(rc.spans, "bench.rep");
    r = run_rep(*w, rc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbbench: %s seed %llu: %s\n", w->name,
                 static_cast<unsigned long long>(args.seed), e.what());
    return 1;
  }

  if (log != nullptr) {
    for (const char* name : required_spans(*w)) {
      if (log->count(name) == 0) {
        r.errors.push_back(std::string("traced rep recorded no ") + name + " span");
      }
    }
    if (!args.spans_out.empty() && !log->write_jsonl(args.spans_out)) {
      r.errors.push_back("cannot write spans to " + args.spans_out);
    }
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::string slices;
  for (double s : r.slice_s) slices += (slices.empty() ? "" : ", ") + number(s);
  std::string errors;
  for (const std::string& e : r.errors) {
    errors += (errors.empty() ? "" : ", ") + quoted(e);
  }
  std::string json = "{\"workload\": " + quoted(w->name) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"mode\": " + quoted(args.mode) +
                     ", \"setup_s\": " + number(r.setup_s) +
                     ", \"slice_s\": [" + slices + "]" +
                     ", \"digest\": " + quoted(digest) +
                     ", \"operations\": " + std::to_string(r.operations) +
                     ", \"unserved\": " + std::to_string(r.unserved) +
                     ", \"util_sd\": " + number(r.util_sd) +
                     ", \"peak_rss_mib\": " + number(r.peak_rss_mib) +
                     ", \"ckpt_bytes\": " + std::to_string(r.ckpt_bytes) +
                     ", \"errors\": [" + errors + "], \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : r.layer) {
    json += (first ? "" : ", ") + quoted(name) + ": " + number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
