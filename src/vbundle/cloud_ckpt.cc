// VBundleCloud checkpoint/restore: the top-level save/restore walk over the
// whole stack, plus the quiesce barrier.  See docs/ARCHITECTURE.md for the
// format and the quiesce contract.
#include <stdexcept>
#include <string>

#include "ckpt/payload_codec.h"
#include "obs/trace.h"
#include "vbundle/cloud.h"

namespace vb::core {

namespace {

/// Registers every payload codec in the build exactly once.  Explicit
/// registration (not static initializers) so static-library linking cannot
/// drop a layer's codecs.
void register_all_codecs() {
  static const bool once = []() {
    pastry::register_ckpt_payload_codecs();
    scribe::register_ckpt_payload_codecs();
    core::register_ckpt_payload_codecs();
    return true;
  }();
  (void)once;
}

}  // namespace

void VBundleCloud::quiesce() {
  std::uint64_t guard = 0;
  while (pastry_->wire_in_flight() > 0) {
    if (!sim_.step()) {
      throw std::logic_error(
          "quiesce: event queue drained while wire traffic was in flight");
    }
    if (++guard > 100'000'000ULL) {
      throw std::runtime_error("quiesce: wire did not drain");
    }
  }
}

template <class IO>
void VBundleCloud::ckpt_io(IO& io) {
  io.section("cloud", [&] {
    // Reconstruction echo: restore verifies the rebuilt world matches.
    std::uint64_t seed = cfg_.seed;
    std::uint8_t id_policy = 0;  // topology-aware ids, the only kind
    bool protocol_join = cfg_.protocol_join;
    std::int64_t hosts = topo_.num_hosts();
    std::vector<U128> keys = customer_keys_;
    io.u64(seed);
    io.u8(id_policy);
    io.boolean(protocol_join);
    io.i64(hosts);
    io.seq(keys, [&](U128& k) { io.u128(k); });
    io.loading([&] {
      if (seed != cfg_.seed) {
        throw ckpt::CkptError("cloud: seed mismatch with reconstruction");
      }
      if (id_policy != 0) {
        throw ckpt::CkptError("cloud: id policy mismatch with reconstruction");
      }
      if (protocol_join != cfg_.protocol_join) {
        throw ckpt::CkptError("cloud: join mode mismatch with reconstruction");
      }
      if (hosts != topo_.num_hosts()) {
        throw ckpt::CkptError("cloud: host count mismatch with reconstruction");
      }
      if (keys.size() != customer_keys_.size()) {
        throw ckpt::CkptError("cloud: customer count mismatch (checkpoint " +
                              std::to_string(keys.size()) +
                              ", reconstruction " +
                              std::to_string(customer_keys_.size()) + ")");
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!(keys[i] == customer_keys_[i])) {
          throw ckpt::CkptError("cloud: customer key " + std::to_string(i) +
                                " mismatch with reconstruction");
        }
      }
    });

    // Order matters: the simulator restore clears every event the
    // reconstruction scheduled and re-pushes the periodic ticks; the
    // component restores below then re-arm their one-shot timers.
    sim_.ckpt_io(io);
    fleet_->ckpt_io(io);

    sim::FaultPlan* fp = pastry_->fault_plan();
    bool have_fp = fp != nullptr;
    io.boolean(have_fp);
    io.loading([&] {
      if (have_fp != (fp != nullptr)) {
        throw ckpt::CkptError(
            "cloud: fault plan presence mismatch with reconstruction");
      }
    });
    if (fp != nullptr) fp->ckpt_io(io);

    obs::TraceRecorder* tr = pastry_->trace();
    bool have_tr = tr != nullptr;
    io.boolean(have_tr);
    io.loading([&] {
      if (have_tr != (tr != nullptr)) {
        throw ckpt::CkptError(
            "cloud: trace recorder presence mismatch with reconstruction");
      }
    });
    if (tr != nullptr) tr->ckpt_io(io);

    pastry_->ckpt_io(io);
    for (pastry::PastryNode* n : pastry_->nodes()) {
      scribe_->at(n->id()).ckpt_io(io);
    }
    for (const auto& a : agg_agents_) a->ckpt_io(io);
    migration_->ckpt_io(io, [this](int h) -> ShuffleClient* {
      return directory_.at(static_cast<std::size_t>(h));
    });
    for (const auto& a : owned_agents_) a->ckpt_io(io);

    // Cross-check: every live event in the queue must have been serialized
    // by exactly one owner (periodic ticks by the simulator, one-shot timers
    // by their components).
    std::uint64_t pending = sim_.pending_events();
    io.u64(pending);
    io.loading([&] {
      if (pending != sim_.pending_events()) {
        throw ckpt::CkptError(
            "cloud: pending-event count after restore (" +
            std::to_string(sim_.pending_events()) +
            ") does not match the checkpoint (" + std::to_string(pending) +
            "); a timer owner serialized more or fewer events than it "
            "re-armed");
      }
    });
  });
}

std::vector<std::uint8_t> VBundleCloud::save_checkpoint() {
  register_all_codecs();
  quiesce();
  ckpt::Writer w;
  ckpt_io(w);
  return w.finish();
}

void VBundleCloud::restore_checkpoint(const std::vector<std::uint8_t>& image) {
  register_all_codecs();
  ckpt::Reader r(image);
  ckpt_io(r);
  if (!r.at_end()) {
    throw ckpt::CkptError("cloud: trailing bytes after the cloud section");
  }
}

}  // namespace vb::core
