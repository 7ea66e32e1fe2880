// Checkpoint payload codecs for the Scribe layer (see ckpt/payload_codec.h).
// Only the payloads sent via send_reliable (leave, heartbeat,
// heartbeat_nack, parent_reset, walk, anycast_ok, anycast_fail) can sit in
// a node's retransmit queue at a checkpoint barrier, so only they have one.
#include <memory>
#include <vector>

#include "ckpt/payload_codec.h"
#include "scribe/scribe_msgs.h"
#include "scribe/scribe_node.h"

namespace vb::scribe {

void ScribeNode::ckpt_save(ckpt::Writer& w) const {
  w.begin_section("scribe");
  w.u32(static_cast<std::uint32_t>(groups_.size()));
  for (const auto& [gid, st] : groups_) {
    w.u128(gid);
    w.boolean(st.member);
    w.boolean(st.root);
    w.boolean(st.attached);
    w.boolean(st.join_pending);
    ckpt::put_handle(w, st.parent);
    w.u32(static_cast<std::uint32_t>(st.children.size()));
    for (const pastry::NodeHandle& c : st.children) ckpt::put_handle(w, c);
    w.f64(st.next_join_retry_s);
    w.f64(st.join_backoff_s);
  }
  w.end_section();
}

void ScribeNode::ckpt_restore(ckpt::Reader& r) {
  r.enter_section("scribe");
  groups_.clear();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    GroupId gid = r.u128();
    GroupState st;
    st.member = r.boolean();
    st.root = r.boolean();
    st.attached = r.boolean();
    st.join_pending = r.boolean();
    st.parent = ckpt::get_handle(r);
    std::uint32_t kids = r.u32();
    st.children.reserve(kids);
    for (std::uint32_t k = 0; k < kids; ++k) {
      st.children.push_back(ckpt::get_handle(r));
    }
    st.next_join_retry_s = r.f64();
    st.join_backoff_s = r.f64();
    groups_.emplace(gid, std::move(st));
  }
  r.exit_section();
}

namespace {

using ckpt::PayloadCodec;
using ckpt::Reader;
using ckpt::Writer;

void put_u128s(Writer& w, const std::vector<U128>& vs) {
  w.u32(static_cast<std::uint32_t>(vs.size()));
  for (const U128& v : vs) w.u128(v);
}

std::vector<U128> get_u128s(Reader& r) {
  std::uint32_t n = r.u32();
  std::vector<U128> vs;
  vs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) vs.push_back(r.u128());
  return vs;
}

void put_handles(Writer& w, const std::vector<pastry::NodeHandle>& hs) {
  w.u32(static_cast<std::uint32_t>(hs.size()));
  for (const pastry::NodeHandle& h : hs) ckpt::put_handle(w, h);
}

std::vector<pastry::NodeHandle> get_handles(Reader& r) {
  std::uint32_t n = r.u32();
  std::vector<pastry::NodeHandle> hs;
  hs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) hs.push_back(ckpt::get_handle(r));
  return hs;
}

}  // namespace

void register_ckpt_payload_codecs() {
  PayloadCodec::add(
      "scribe.heartbeat",
      [](Writer& w, const pastry::Payload& p) {
        const auto& m = ckpt::payload_cast<HeartbeatMsg>(p);
        w.u128(m.group);
        ckpt::put_handle(w, m.child);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<HeartbeatMsg>();
        m->group = r.u128();
        m->child = ckpt::get_handle(r);
        return m;
      });
  PayloadCodec::add(
      "scribe.heartbeat_nack",
      [](Writer& w, const pastry::Payload& p) {
        w.u128(ckpt::payload_cast<HeartbeatNackMsg>(p).group);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<HeartbeatNackMsg>();
        m->group = r.u128();
        return m;
      });
  PayloadCodec::add(
      "scribe.parent_reset",
      [](Writer& w, const pastry::Payload& p) {
        w.u128(ckpt::payload_cast<ParentResetMsg>(p).group);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<ParentResetMsg>();
        m->group = r.u128();
        return m;
      });
  PayloadCodec::add(
      "scribe.leave",
      [](Writer& w, const pastry::Payload& p) {
        const auto& m = ckpt::payload_cast<LeaveMsg>(p);
        w.u128(m.group);
        ckpt::put_handle(w, m.child);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<LeaveMsg>();
        m->group = r.u128();
        m->child = ckpt::get_handle(r);
        return m;
      });
  PayloadCodec::add(
      "scribe.walk",
      [](Writer& w, const pastry::Payload& p) {
        const auto& m = ckpt::payload_cast<WalkMsg>(p);
        w.u128(m.group);
        PayloadCodec::encode_ptr(w, m.inner);
        ckpt::put_handle(w, m.origin);
        ckpt::put_category(w, m.inner_category);
        put_handles(w, m.stack);
        put_u128s(w, m.visited);
        w.i64(m.nodes_visited);
        w.u64(m.trace);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<WalkMsg>();
        m->group = r.u128();
        m->inner = PayloadCodec::decode_ptr(r);
        m->origin = ckpt::get_handle(r);
        m->inner_category = ckpt::get_category(r);
        m->stack = get_handles(r);
        m->visited = get_u128s(r);
        m->nodes_visited = static_cast<int>(r.i64());
        m->trace = r.u64();
        return m;
      });
  PayloadCodec::add(
      "scribe.anycast_ok",
      [](Writer& w, const pastry::Payload& p) {
        const auto& m = ckpt::payload_cast<AnycastAcceptedMsg>(p);
        w.u128(m.group);
        PayloadCodec::encode_ptr(w, m.inner);
        ckpt::put_handle(w, m.acceptor);
        w.i64(m.nodes_visited);
        w.u64(m.trace);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<AnycastAcceptedMsg>();
        m->group = r.u128();
        m->inner = PayloadCodec::decode_ptr(r);
        m->acceptor = ckpt::get_handle(r);
        m->nodes_visited = static_cast<int>(r.i64());
        m->trace = r.u64();
        return m;
      });
  PayloadCodec::add(
      "scribe.anycast_fail",
      [](Writer& w, const pastry::Payload& p) {
        const auto& m = ckpt::payload_cast<AnycastFailedMsg>(p);
        w.u128(m.group);
        PayloadCodec::encode_ptr(w, m.inner);
        w.i64(m.nodes_visited);
        w.u64(m.trace);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<AnycastFailedMsg>();
        m->group = r.u128();
        m->inner = PayloadCodec::decode_ptr(r);
        m->nodes_visited = static_cast<int>(r.i64());
        m->trace = r.u64();
        return m;
      });
}

}  // namespace vb::scribe
