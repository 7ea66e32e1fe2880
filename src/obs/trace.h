// Causal tracing for the simulated stack.
//
// A TraceRecorder collects span (begin/end) and instant events stamped with
// *simulated* time and a propagated trace id, into a bounded ring buffer
// (old events are overwritten once the buffer wraps — the recorder is a
// flight recorder, not a full log).  The four protocol chains are
// instrumented end-to-end:
//
//   pastry.route      route() begin -> per-hop "pastry.hop" instants -> end
//                     at the delivery node (hops carried as an arg)
//   scribe.anycast    anycast() begin -> "anycast.visit" per DFS hop ->
//                     end at the origin on accepted/failed
//   vbundle.shuffle   try_shed begin -> "shuffle.hold" at the receiver ->
//                     "shuffle.migrate" -> end when the migration lands
//                     (or on timeout/anycast failure)
//   agg cascade       "agg.update" per tree edge, "agg.publish" per
//                     publish edge, "agg.global" when a member learns the
//                     new global — all sharing the id minted at the leaf
//
// plus the reliable-delivery channel ("rel.send"/"rel.retransmit"/
// "rel.acked", all on the original payload's span) and the FaultPlan's
// verdicts ("fault.drop"/"fault.partition_drop"/"fault.dup") on the same
// timeline.
//
// Zero-cost when disabled: the transport holds a TraceRecorder* that
// defaults to nullptr and every instrumentation site is gated on it, so a
// run without a recorder pays one pointer compare per site.  Recording
// never schedules events or draws randomness, so attaching a recorder
// cannot change simulation outcomes (locked in by determinism_test).
//
// Exports: Chrome trace_event JSON (load in chrome://tracing or Perfetto;
// ts is simulated microseconds, tid is the host id, spans are async events
// keyed by trace id) and JSONL (one event object per line, for grepping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "ckpt/format.h"

namespace vb::obs {

enum class Phase : char {
  kBegin = 'b',    // async span begin (Chrome "b")
  kEnd = 'e',      // async span end (Chrome "e")
  kInstant = 'i',  // instant; exported as async instant "n" when id != 0
};

/// One recorded event.  Name/category/arg-name strings must be string
/// literals (static storage): the recorder stores the pointers only, which
/// keeps record() allocation-free.
struct TraceEvent {
  double ts_s = 0.0;           ///< simulated time, seconds
  std::uint64_t trace_id = 0;  ///< causal chain id; 0 = unassociated
  std::int32_t node = -1;      ///< host id of the node recording the event
  Phase phase = Phase::kInstant;
  const char* name = "";
  const char* cat = "";
  const char* arg0_name = nullptr;
  double arg0 = 0.0;
  const char* arg1_name = nullptr;
  double arg1 = 0.0;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Mints a fresh trace id, monotonic from 1 (never 0).  Purely local
  /// state: minting ids does not perturb the simulation.
  std::uint64_t new_trace_id() { return next_id_++; }

  void record(double ts_s, Phase phase, std::uint64_t trace_id, int node,
              const char* name, const char* cat,
              const char* arg0_name = nullptr, double arg0 = 0.0,
              const char* arg1_name = nullptr, double arg1 = 0.0);

  void begin(double ts_s, std::uint64_t trace_id, int node, const char* name,
             const char* cat, const char* arg0_name = nullptr,
             double arg0 = 0.0) {
    record(ts_s, Phase::kBegin, trace_id, node, name, cat, arg0_name, arg0);
  }
  void end(double ts_s, std::uint64_t trace_id, int node, const char* name,
           const char* cat, const char* arg0_name = nullptr, double arg0 = 0.0,
           const char* arg1_name = nullptr, double arg1 = 0.0) {
    record(ts_s, Phase::kEnd, trace_id, node, name, cat, arg0_name, arg0,
           arg1_name, arg1);
  }
  void instant(double ts_s, std::uint64_t trace_id, int node, const char* name,
               const char* cat, const char* arg0_name = nullptr,
               double arg0 = 0.0, const char* arg1_name = nullptr,
               double arg1 = 0.0) {
    record(ts_s, Phase::kInstant, trace_id, node, name, cat, arg0_name, arg0,
           arg1_name, arg1);
  }

  std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  std::size_t size() const { return buf_.size(); }
  /// Every record() call ever made, including overwritten ones.
  std::uint64_t total_recorded() const { return total_; }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const { return total_recorded() - size(); }
  void clear();

  /// Buffered events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  // --- export ------------------------------------------------------------
  /// Chrome trace_event JSON object format: {"traceEvents": [...]}.
  void export_chrome_json(std::ostream& os) const;
  std::string chrome_json() const;
  /// One JSON object per line (grep/jq-friendly; same field fidelity).
  void export_jsonl(std::ostream& os) const;
  bool write_chrome_json(const std::string& path) const;
  bool write_jsonl(const std::string& path) const;
  /// Dispatches on extension: ".jsonl" -> JSONL, anything else -> Chrome.
  bool write(const std::string& path) const;

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Serializes the ring (capacity, counters, buffered events).  Event
  /// strings are written out by value, so the image does not depend on the
  /// writer process's literal addresses.
  void ckpt_save(ckpt::Writer& w) const;

  /// Overwrites ring contents from the image.  The recorder must already
  /// have the same capacity; a mismatch throws CkptError.  Restored strings
  /// live in a recorder-owned arena — same static-storage guarantee the
  /// literal contract gives, different owner.
  void ckpt_restore(ckpt::Reader& r);

 private:
  /// Stable recorder-owned copy of `s` (checkpoint restore only).
  const char* intern(const std::string& s);

  // One bounded ring: buf_ grows to capacity_, then head_ is the next slot
  // to overwrite.
  std::vector<TraceEvent> buf_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t next_id_ = 1;
  std::set<std::string> interned_;  // restored strings; node-stable c_str()s
};

}  // namespace vb::obs
