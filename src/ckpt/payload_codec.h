// Serialization registry for pastry::Payload subclasses (checkpoint only).
//
// Checkpoints must serialize payloads that are still held by component
// state machines at the quiesce barrier.  The wire itself is empty there,
// so these are only the unacked ReliableEnvelopes in
// PastryNode::pending_reliable_ and what they wrap: the payloads sent with
// send_reliable (pastry.scan/scan_rep; scribe.leave, heartbeat,
// heartbeat_nack, parent_reset, walk, anycast_ok, anycast_fail) and the
// vbundle.lb_query a walk carries.  Only those have codecs; encoding any
// other payload throws.  The registry maps Payload::name() strings (already
// stable wire identifiers) to encode/decode functions.
//
// Registration is explicit per layer: a static-initializer pattern would be
// silently dropped when the static libraries are linked, so each layer
// exports a register_ckpt_payload_codecs() and the checkpoint entry points
// (VBundleCloud::save_checkpoint/restore_checkpoint, tests) call the ones
// for the layers they use.  Registration is idempotent.
#pragma once

#include <cstdint>
#include <string>

#include "ckpt/format.h"
#include "pastry/message.h"
#include "pastry/node_id.h"

namespace vb::ckpt {

class PayloadCodec {
 public:
  using EncodeFn = void (*)(Writer&, const pastry::Payload&);
  using DecodeFn = pastry::PayloadPtr (*)(Reader&);

  /// Registers (or re-registers — idempotent) a codec for one name() value.
  static void add(const std::string& name, EncodeFn enc, DecodeFn dec);

  /// Writes `p.name()` then the payload fields.  Throws CkptError when the
  /// payload type has no registered codec.
  static void encode(Writer& w, const pastry::Payload& p);
  /// Reads the name written by encode() and dispatches.  Throws CkptError
  /// on an unknown name.
  static pastry::PayloadPtr decode(Reader& r);

  /// Nullable variants: presence flag + encode/decode.
  static void encode_ptr(Writer& w, const pastry::PayloadPtr& p);
  static pastry::PayloadPtr decode_ptr(Reader& r);
};

/// Downcast helper for encoders; a name()/type mismatch (two payload types
/// sharing a name string) throws instead of reading garbage.
template <class T>
const T& payload_cast(const pastry::Payload& p) {
  const T* t = dynamic_cast<const T*>(&p);
  if (t == nullptr) {
    throw CkptError("payload codec: registered codec for '" + p.name() +
                    "' does not match the payload's concrete type");
  }
  return *t;
}

// --- field helpers shared by the per-layer codec files ---------------------
inline void put_handle(Writer& w, const pastry::NodeHandle& h) {
  w.u128(h.id);
  w.i64(h.host);
}
inline pastry::NodeHandle get_handle(Reader& r) {
  pastry::NodeHandle h;
  h.id = r.u128();
  h.host = static_cast<net::HostId>(r.i64());
  return h;
}
inline void put_category(Writer& w, pastry::MsgCategory c) {
  w.u8(static_cast<std::uint8_t>(c));
}
inline pastry::MsgCategory get_category(Reader& r) {
  std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(pastry::MsgCategory::kAck)) {
    throw CkptError("payload codec: MsgCategory value out of range");
  }
  return static_cast<pastry::MsgCategory>(v);
}

}  // namespace vb::ckpt

// Per-layer registration entry points (implemented in each layer's library).
namespace vb::pastry {
void register_ckpt_payload_codecs();
}
namespace vb::scribe {
void register_ckpt_payload_codecs();
}
namespace vb::core {
void register_ckpt_payload_codecs();
}
