#include "ckpt/payload_codec.h"

#include <map>
#include <string>

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

void PayloadCodec::add_fns(const std::string& name, EncodeFn enc,
                           DecodeFn dec) {
  registry()[name] = Entry{enc, dec};
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

}  // namespace vb::ckpt

namespace vb::pastry {

void register_ckpt_payload_codecs() {
  using ckpt::PayloadCodec;
  using namespace internal;
  PayloadCodec::add<RingScan>(
      "pastry.scan", [](auto& io, RingScan& m) { m.origin.ckpt_io(io); });
  PayloadCodec::add<RingScanReply>(
      "pastry.scan_rep", [](auto& io, RingScanReply& m) {
        io.seq(m.nodes, [&](NodeHandle& h) { h.ckpt_io(io); });
      });
  PayloadCodec::add<ReliableEnvelope>(
      "pastry.rel", [](auto& io, ReliableEnvelope& m) {
        PayloadCodec::nullable(io, m.inner);
        ckpt::category(io, m.inner_category);
        io.u64(m.seq);
        io.u64(m.floor);
        io.loading([&] {
          if (m.floor > m.seq) {
            throw ckpt::CkptError("pastry.rel: floor " +
                                  std::to_string(m.floor) + " above seq " +
                                  std::to_string(m.seq));
          }
        });
        m.sender.ckpt_io(io);
        io.u64(m.trace);
      });
}

}  // namespace vb::pastry
