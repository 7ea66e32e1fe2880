// Message envelope types exchanged between Pastry nodes.
//
// Two delivery modes exist, matching the Pastry common API:
//   * key-routed messages ("route to the node numerically closest to key"),
//   * direct messages to a known NodeHandle (tree parent/child traffic,
//     query replies, state exchange).
//
// Applications (Scribe, aggregation, v-Bundle) attach their own payloads by
// deriving from Payload; the overlay never inspects payload contents.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/u128.h"
#include "pastry/node_id.h"

namespace vb::pastry {

/// Accounting category, used to break per-host message overhead into
/// "aggregation framework" vs "v-Bundle on top" (paper Fig. 15) plus overlay
/// maintenance.
enum class MsgCategory {
  kOverlayMaintenance,  // join/leaf-set/routing-table upkeep
  kScribeControl,       // group JOIN/LEAVE/heartbeat
  kAggregation,         // aggregation tree updates & publishes
  kVBundle,             // placement queries, load-balance anycast, acks
  kApp,                 // everything else (examples/tests)
  kRetransmit,          // reliable-delivery retransmissions (loss recovery)
  kAck,                 // reliable-delivery acknowledgements
};

inline const char* to_string(MsgCategory c) {
  switch (c) {
    case MsgCategory::kOverlayMaintenance: return "overlay";
    case MsgCategory::kScribeControl: return "scribe";
    case MsgCategory::kAggregation: return "aggregation";
    case MsgCategory::kVBundle: return "vbundle";
    case MsgCategory::kRetransmit: return "retransmit";
    case MsgCategory::kAck: return "ack";
    default: return "app";
  }
}

/// Base class for application payloads.  Payloads are immutable once sent;
/// the shared_ptr lets a multicast fan-out reference one copy.
struct Payload {
  virtual ~Payload() = default;
  /// Approximate wire size in bytes, for KB/round accounting (Fig. 15).
  virtual std::size_t wire_bytes() const { return 64; }
  /// Debug name of the payload type.
  virtual std::string name() const { return "payload"; }
  /// Causal trace id for the obs::TraceRecorder, 0 = untraced.  Payloads
  /// that start or continue a traced chain override this.  Trace ids are
  /// observability metadata: they never count toward wire_bytes().
  virtual std::uint64_t trace_id() const { return 0; }
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// A key-routed message in flight.
struct RouteMsg {
  U128 key;                 ///< destination key on the ring
  PayloadPtr payload;
  MsgCategory category = MsgCategory::kApp;
  int hops = 0;             ///< hops taken so far
  std::uint64_t trace_id = 0;  ///< span covering every hop of this route
};

}  // namespace vb::pastry
