// Checkpoint layout of ScribeNode and the payload codecs of the Scribe layer
// (see ckpt/payload_codec.h).  Only the payloads sent via send_reliable
// (leave, heartbeat, heartbeat_nack, parent_reset, walk, anycast_ok,
// anycast_fail) can sit in a node's retransmit queue at a checkpoint
// barrier, so only they have one.
#include "ckpt/payload_codec.h"
#include "scribe/scribe_msgs.h"
#include "scribe/scribe_node.h"

namespace vb::scribe {

using pastry::NodeHandle;

template <class IO>
void ScribeNode::ckpt_io(IO& io) {
  io.section("scribe", [&] {
    io.map(groups_, [&](GroupId& gid, GroupState& st) {
      io.u128(gid);
      io.boolean(st.member);
      io.boolean(st.root);
      io.boolean(st.attached);
      io.boolean(st.join_pending);
      st.parent.ckpt_io(io);
      io.seq(st.children, [&](NodeHandle& c) { c.ckpt_io(io); });
      io.f64(st.next_join_retry_s);
      io.f64(st.join_backoff_s);
    });
  });
}

template void ScribeNode::ckpt_io(ckpt::Writer&);
template void ScribeNode::ckpt_io(ckpt::Reader&);

void register_ckpt_payload_codecs() {
  using ckpt::PayloadCodec;
  PayloadCodec::add<HeartbeatMsg>(
      "scribe.heartbeat", [](auto& io, HeartbeatMsg& m) {
        io.u128(m.group);
        m.child.ckpt_io(io);
      });
  PayloadCodec::add<HeartbeatNackMsg>(
      "scribe.heartbeat_nack",
      [](auto& io, HeartbeatNackMsg& m) { io.u128(m.group); });
  PayloadCodec::add<ParentResetMsg>(
      "scribe.parent_reset",
      [](auto& io, ParentResetMsg& m) { io.u128(m.group); });
  PayloadCodec::add<LeaveMsg>("scribe.leave", [](auto& io, LeaveMsg& m) {
    io.u128(m.group);
    m.child.ckpt_io(io);
  });
  PayloadCodec::add<WalkMsg>("scribe.walk", [](auto& io, WalkMsg& m) {
    io.u128(m.group);
    PayloadCodec::nullable(io, m.inner);
    m.origin.ckpt_io(io);
    ckpt::category(io, m.inner_category);
    io.seq(m.stack, [&](NodeHandle& h) { h.ckpt_io(io); });
    io.seq(m.visited, [&](U128& v) { io.u128(v); });
    io.i64(m.nodes_visited);
    io.u64(m.trace);
  });
  PayloadCodec::add<AnycastAcceptedMsg>(
      "scribe.anycast_ok", [](auto& io, AnycastAcceptedMsg& m) {
        io.u128(m.group);
        PayloadCodec::nullable(io, m.inner);
        m.acceptor.ckpt_io(io);
        io.i64(m.nodes_visited);
        io.u64(m.trace);
      });
  PayloadCodec::add<AnycastFailedMsg>(
      "scribe.anycast_fail", [](auto& io, AnycastFailedMsg& m) {
        io.u128(m.group);
        PayloadCodec::nullable(io, m.inner);
        io.i64(m.nodes_visited);
        io.u64(m.trace);
      });
}

}  // namespace vb::scribe
