// Internal payloads used by Pastry's own join and stabilization protocols.
// Applications never see these: PastryNode consumes them before app upcalls.
#pragma once

#include <cstdint>
#include <vector>

#include "pastry/message.h"
#include "pastry/node_id.h"

namespace vb::pastry::internal {

/// Routed toward the newcomer's id; every node on the path ships routing
/// rows to the newcomer, and the delivery node ships its leaf set.
struct JoinRequest : Payload {
  NodeHandle newcomer;
  std::size_t wire_bytes() const override { return 32; }
  std::string name() const override { return "pastry.join"; }
};

/// Direct: rows of a routing table relevant to the newcomer.
struct StateTransfer : Payload {
  std::vector<NodeHandle> nodes;  // routing rows and/or leaf set members
  bool from_delivery_node = false;  // true when sent by the closest node
  std::size_t wire_bytes() const override { return 16 + 24 * nodes.size(); }
  std::string name() const override { return "pastry.state"; }
};

/// Direct: newcomer announces itself after assembling its tables.
struct Announce : Payload {
  NodeHandle who;
  std::size_t wire_bytes() const override { return 32; }
  std::string name() const override { return "pastry.announce"; }
};

/// Direct: reply to an Announce or stabilization probe with our leaf set,
/// so both sides converge on ring membership.
struct LeafExchange : Payload {
  std::vector<NodeHandle> leaves;
  bool is_reply = false;
  std::size_t wire_bytes() const override { return 16 + 24 * leaves.size(); }
  std::string name() const override { return "pastry.leafx"; }
};

/// Direct: sender is leaving the overlay gracefully; purge it immediately
/// instead of waiting for send-failure detection.
struct Depart : Payload {
  NodeHandle who;
  std::size_t wire_bytes() const override { return 32; }
  std::string name() const override { return "pastry.depart"; }
};

/// Direct: ask a peer for row `row` of its routing table (periodic
/// routing-table maintenance; Pastry repairs holes by fetching rows from
/// peers that share the corresponding prefix).
struct RowRequest : Payload {
  int row = 0;
  std::size_t wire_bytes() const override { return 24; }
  std::string name() const override { return "pastry.row_req"; }
};

/// Direct: the requested row's entries.
struct RowReply : Payload {
  int row = 0;
  std::vector<NodeHandle> entries;
  std::size_t wire_bytes() const override { return 24 + 24 * entries.size(); }
  std::string name() const override { return "pastry.row_rep"; }
};

/// Direct (reliable): one step of a newcomer's ring-presence sweep.  After
/// the join's leaf-set transfer the newcomer walks the whole ring clockwise
/// (each visited node's reply names its leaf-set members, which always
/// include the next unvisited successors), so *every* live node considers
/// the newcomer and the newcomer considers every live node — the mutual
/// full-coverage property that makes protocol joins converge to the same
/// canonical state the bulk-join synthesizer constructs directly.
struct RingScan : Payload {
  NodeHandle origin;
  std::size_t wire_bytes() const override { return 32; }
  std::string name() const override { return "pastry.scan"; }
};

/// Direct (reliable): reply to a RingScan — the recipient's leaf-set
/// members plus itself, feeding the origin's sweep frontier.
struct RingScanReply : Payload {
  std::vector<NodeHandle> nodes;
  std::size_t wire_bytes() const override { return 16 + 24 * nodes.size(); }
  std::string name() const override { return "pastry.scan_rep"; }
};

/// Direct: wrapper giving a payload retransmission with receive-side
/// dedup.  The receiver acks every copy (acks can be lost too), processes
/// the inner payload only for a (sender, seq) its DedupWindows accepts, and
/// unwraps it into the normal direct-message path.
struct ReliableEnvelope : Payload {
  PayloadPtr inner;
  MsgCategory inner_category = MsgCategory::kApp;
  std::uint64_t seq = 0;        ///< per-sender sequence number
  /// The sender's oldest unacked seq to this receiver when the envelope was
  /// first sent, or `seq` if there was none; every copy carries the same.
  std::uint64_t floor = 0;
  NodeHandle sender;            ///< dedup key (envelopes may be forwarded
                                ///  through transport duplicates)
  std::uint64_t trace = 0;      ///< span shared by every copy (retransmits)
  /// The nominal 16-byte header models (seq, floor); the sender id is the
  /// transport source, so it costs nothing extra.
  std::size_t wire_bytes() const override {
    return 16 + (inner ? inner->wire_bytes() : 0);
  }
  std::string name() const override { return "pastry.rel"; }
  std::uint64_t trace_id() const override {
    return trace != 0 ? trace : (inner ? inner->trace_id() : 0);
  }
};

/// Direct: acknowledges one ReliableEnvelope sequence number.
struct AckMsg : Payload {
  std::uint64_t seq = 0;
  std::size_t wire_bytes() const override { return 16; }
  std::string name() const override { return "pastry.ack"; }
};

}  // namespace vb::pastry::internal
