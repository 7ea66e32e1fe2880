#include "ckpt/payload_codec.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pastry/pastry_internal.h"

namespace vb::ckpt {

namespace {

struct Entry {
  PayloadCodec::EncodeFn enc = nullptr;
  PayloadCodec::DecodeFn dec = nullptr;
};

std::map<std::string, Entry>& registry() {
  static std::map<std::string, Entry> m;
  return m;
}

}  // namespace

void PayloadCodec::add(const std::string& name, EncodeFn enc, DecodeFn dec) {
  registry()[name] = Entry{enc, dec};
}

bool PayloadCodec::has(const std::string& name) {
  return registry().count(name) != 0;
}

void PayloadCodec::encode(Writer& w, const pastry::Payload& p) {
  const std::string name = p.name();
  auto it = registry().find(name);
  if (it == registry().end()) {
    throw CkptError("payload '" + name +
                    "' has no registered checkpoint codec — call the owning "
                    "layer's register_ckpt_payload_codecs()");
  }
  w.str(name);
  it->second.enc(w, p);
}

pastry::PayloadPtr PayloadCodec::decode(Reader& r) {
  const std::string name = r.str();
  auto it = registry().find(name);
  if (it == registry().end()) {
    throw CkptError("checkpoint names payload '" + name +
                    "' but no codec is registered for it");
  }
  return it->second.dec(r);
}

void PayloadCodec::encode_ptr(Writer& w, const pastry::PayloadPtr& p) {
  w.boolean(p != nullptr);
  if (p) encode(w, *p);
}

pastry::PayloadPtr PayloadCodec::decode_ptr(Reader& r) {
  if (!r.boolean()) return nullptr;
  return decode(r);
}

}  // namespace vb::ckpt

namespace vb::pastry {

namespace {

using ckpt::PayloadCodec;
using ckpt::Reader;
using ckpt::Writer;

void put_handles(Writer& w, const std::vector<NodeHandle>& hs) {
  w.u32(static_cast<std::uint32_t>(hs.size()));
  for (const NodeHandle& h : hs) ckpt::put_handle(w, h);
}

std::vector<NodeHandle> get_handles(Reader& r) {
  std::uint32_t n = r.u32();
  std::vector<NodeHandle> hs;
  hs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) hs.push_back(ckpt::get_handle(r));
  return hs;
}

}  // namespace

void register_ckpt_payload_codecs() {
  using namespace internal;
  PayloadCodec::add(
      "pastry.join",
      [](Writer& w, const Payload& p) {
        ckpt::put_handle(w, ckpt::payload_cast<JoinRequest>(p).newcomer);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<JoinRequest>();
        m->newcomer = ckpt::get_handle(r);
        return m;
      });
  PayloadCodec::add(
      "pastry.state",
      [](Writer& w, const Payload& p) {
        const auto& m = ckpt::payload_cast<StateTransfer>(p);
        put_handles(w, m.nodes);
        w.boolean(m.from_delivery_node);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<StateTransfer>();
        m->nodes = get_handles(r);
        m->from_delivery_node = r.boolean();
        return m;
      });
  PayloadCodec::add(
      "pastry.announce",
      [](Writer& w, const Payload& p) {
        ckpt::put_handle(w, ckpt::payload_cast<Announce>(p).who);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<Announce>();
        m->who = ckpt::get_handle(r);
        return m;
      });
  PayloadCodec::add(
      "pastry.leafx",
      [](Writer& w, const Payload& p) {
        const auto& m = ckpt::payload_cast<LeafExchange>(p);
        put_handles(w, m.leaves);
        w.boolean(m.is_reply);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<LeafExchange>();
        m->leaves = get_handles(r);
        m->is_reply = r.boolean();
        return m;
      });
  PayloadCodec::add(
      "pastry.depart",
      [](Writer& w, const Payload& p) {
        ckpt::put_handle(w, ckpt::payload_cast<Depart>(p).who);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<Depart>();
        m->who = ckpt::get_handle(r);
        return m;
      });
  PayloadCodec::add(
      "pastry.row_req",
      [](Writer& w, const Payload& p) {
        w.i64(ckpt::payload_cast<RowRequest>(p).row);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<RowRequest>();
        m->row = static_cast<int>(r.i64());
        return m;
      });
  PayloadCodec::add(
      "pastry.row_rep",
      [](Writer& w, const Payload& p) {
        const auto& m = ckpt::payload_cast<RowReply>(p);
        w.i64(m.row);
        put_handles(w, m.entries);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<RowReply>();
        m->row = static_cast<int>(r.i64());
        m->entries = get_handles(r);
        return m;
      });
  PayloadCodec::add(
      "pastry.scan",
      [](Writer& w, const Payload& p) {
        ckpt::put_handle(w, ckpt::payload_cast<RingScan>(p).origin);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<RingScan>();
        m->origin = ckpt::get_handle(r);
        return m;
      });
  PayloadCodec::add(
      "pastry.scan_rep",
      [](Writer& w, const Payload& p) {
        put_handles(w, ckpt::payload_cast<RingScanReply>(p).nodes);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<RingScanReply>();
        m->nodes = get_handles(r);
        return m;
      });
  PayloadCodec::add(
      "pastry.rel",
      [](Writer& w, const Payload& p) {
        const auto& m = ckpt::payload_cast<ReliableEnvelope>(p);
        PayloadCodec::encode_ptr(w, m.inner);
        ckpt::put_category(w, m.inner_category);
        w.u64(m.seq);
        w.u64(m.floor);
        ckpt::put_handle(w, m.sender);
        w.u64(m.trace);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<ReliableEnvelope>();
        m->inner = PayloadCodec::decode_ptr(r);
        m->inner_category = ckpt::get_category(r);
        m->seq = r.u64();
        m->floor = r.u64();
        if (m->floor > m->seq) {
          throw ckpt::CkptError("pastry.rel: floor " +
                                std::to_string(m->floor) + " above seq " +
                                std::to_string(m->seq));
        }
        m->sender = ckpt::get_handle(r);
        m->trace = r.u64();
        return m;
      });
  PayloadCodec::add(
      "pastry.ack",
      [](Writer& w, const Payload& p) {
        w.u64(ckpt::payload_cast<AckMsg>(p).seq);
      },
      [](Reader& r) -> PayloadPtr {
        auto m = std::make_shared<AckMsg>();
        m->seq = r.u64();
        return m;
      });
}

}  // namespace vb::pastry
