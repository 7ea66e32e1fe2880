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
// stable wire identifiers) to each payload type's single layout.
//
// Registration is explicit per layer: a static-initializer pattern would be
// silently dropped when the static libraries are linked, so each layer
// exports a register_ckpt_payload_codecs() and the checkpoint entry points
// (VBundleCloud::save_checkpoint/restore_checkpoint, tests) call the ones
// for the layers they use.  Registration is idempotent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "ckpt/format.h"
#include "pastry/message.h"
#include "pastry/node_id.h"

namespace vb::ckpt {

class PayloadCodec {
 public:
  using EncodeFn = void (*)(Writer&, const pastry::Payload&);
  using DecodeFn = pastry::PayloadPtr (*)(Reader&);

  /// Registers (or re-registers — idempotent) the codec of payload type T
  /// under its name() value.  `io` is a captureless callable `(auto& io,
  /// T& m)` holding the payload's one layout: encode runs it with a Writer,
  /// decode with a Reader on a default-constructed T.
  template <class T, class Io>
  static void add(const std::string& name, Io) {
    static_assert(std::is_empty_v<Io>, "a payload codec captures nothing");
    add_fns(
        name,
        [](Writer& w, const pastry::Payload& p) {
          Io{}(w, const_cast<T&>(payload_cast<T>(p)));
        },
        [](Reader& r) -> pastry::PayloadPtr {
          auto m = std::make_shared<T>();
          Io{}(r, *m);
          return m;
        });
  }

  /// Writes `p.name()` then the payload fields.  Throws CkptError when the
  /// payload type has no registered codec.
  static void encode(Writer& w, const pastry::Payload& p);
  /// Reads the name written by encode() and dispatches.  Throws CkptError
  /// on an unknown name.
  static pastry::PayloadPtr decode(Reader& r);

  /// A payload field of a checkpointed type: encode() on save, decode() on
  /// restore.
  static void field(Writer& w, pastry::PayloadPtr& p) { encode(w, *p); }
  static void field(Reader& r, pastry::PayloadPtr& p) { p = decode(r); }
  /// A nullable payload field: presence flag, then field().
  template <class IO>
  static void nullable(IO& io, pastry::PayloadPtr& p) {
    bool present = p != nullptr;
    io.boolean(present);
    if (present) field(io, p);
  }

 private:
  /// Downcast for encoders; a name()/type mismatch (two payload types
  /// sharing a name string) throws instead of reading garbage.
  template <class T>
  static const T& payload_cast(const pastry::Payload& p) {
    const T* t = dynamic_cast<const T*>(&p);
    if (t == nullptr) {
      throw CkptError("payload codec: registered codec for '" + p.name() +
                      "' does not match the payload's concrete type");
    }
    return *t;
  }
  static void add_fns(const std::string& name, EncodeFn enc, DecodeFn dec);
};

/// A MsgCategory field; restore refuses a value outside the enum.
template <class IO>
void category(IO& io, pastry::MsgCategory& c) {
  io.u8(c);
  io.loading([&] {
    if (c > pastry::MsgCategory::kAck) {
      throw CkptError("payload codec: MsgCategory value out of range");
    }
  });
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
