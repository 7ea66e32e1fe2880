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

std::vector<std::uint8_t> VBundleCloud::save_checkpoint() {
  register_all_codecs();
  quiesce();
  ckpt::Writer w;
  w.begin_section("cloud");
  // Reconstruction echo: restore verifies the rebuilt world matches.
  w.u64(cfg_.seed);
  w.u8(static_cast<std::uint8_t>(cfg_.id_policy));
  w.boolean(cfg_.protocol_join);
  w.i64(topo_.num_hosts());
  w.u32(static_cast<std::uint32_t>(customer_keys_.size()));
  for (const U128& k : customer_keys_) w.u128(k);

  sim_.ckpt_save(w);
  fleet_->ckpt_save(w);

  // FaultPlan: its Rng is the only mutable state.
  sim::FaultPlan* fp = pastry_->fault_plan();
  w.boolean(fp != nullptr);
  if (fp != nullptr) {
    Rng::State s = fp->ckpt_rng_state();
    w.u64(s.state);
    w.boolean(s.have_spare_normal);
    w.f64(s.spare_normal);
  }

  obs::TraceRecorder* tr = pastry_->trace();
  w.boolean(tr != nullptr);
  if (tr != nullptr) tr->ckpt_save(w);

  pastry_->ckpt_save(w);
  for (pastry::PastryNode* n : pastry_->nodes()) {
    scribe_->at(n->id()).ckpt_save(w);
  }
  for (const auto& a : agg_agents_) a->ckpt_save(w);
  migration_->ckpt_save(w);
  for (const auto& a : owned_agents_) a->ckpt_save(w);

  // Cross-check: every live event in the queue must have been serialized by
  // exactly one owner (periodic ticks by the simulator, one-shot timers by
  // their components).
  w.u64(sim_.pending_events());
  w.end_section();
  return w.finish();
}

void VBundleCloud::restore_checkpoint(const std::vector<std::uint8_t>& image) {
  register_all_codecs();
  ckpt::Reader r(image);
  r.enter_section("cloud");
  if (r.u64() != cfg_.seed) {
    throw ckpt::CkptError("cloud: seed mismatch with reconstruction");
  }
  if (r.u8() != static_cast<std::uint8_t>(cfg_.id_policy)) {
    throw ckpt::CkptError("cloud: id policy mismatch with reconstruction");
  }
  if (r.boolean() != cfg_.protocol_join) {
    throw ckpt::CkptError("cloud: join mode mismatch with reconstruction");
  }
  if (r.i64() != topo_.num_hosts()) {
    throw ckpt::CkptError("cloud: host count mismatch with reconstruction");
  }
  std::uint32_t nc = r.u32();
  if (nc != customer_keys_.size()) {
    throw ckpt::CkptError("cloud: customer count mismatch (checkpoint " +
                          std::to_string(nc) + ", reconstruction " +
                          std::to_string(customer_keys_.size()) + ")");
  }
  for (std::uint32_t i = 0; i < nc; ++i) {
    if (!(r.u128() == customer_keys_[i])) {
      throw ckpt::CkptError("cloud: customer key " + std::to_string(i) +
                            " mismatch with reconstruction");
    }
  }

  // Order matters: the simulator restore clears every event the
  // reconstruction scheduled and re-pushes the periodic ticks; the component
  // restores below then re-arm their one-shot timers.
  sim_.ckpt_restore(r);
  fleet_->ckpt_restore(r);

  bool have_fp = r.boolean();
  sim::FaultPlan* fp = pastry_->fault_plan();
  if (have_fp != (fp != nullptr)) {
    throw ckpt::CkptError(
        "cloud: fault plan presence mismatch with reconstruction");
  }
  if (fp != nullptr) {
    Rng::State s;
    s.state = r.u64();
    s.have_spare_normal = r.boolean();
    s.spare_normal = r.f64();
    fp->ckpt_restore_rng(s);
  }

  bool have_tr = r.boolean();
  obs::TraceRecorder* tr = pastry_->trace();
  if (have_tr != (tr != nullptr)) {
    throw ckpt::CkptError(
        "cloud: trace recorder presence mismatch with reconstruction");
  }
  if (tr != nullptr) tr->ckpt_restore(r);

  pastry_->ckpt_restore(r);
  for (pastry::PastryNode* n : pastry_->nodes()) {
    scribe_->at(n->id()).ckpt_restore(r);
  }
  for (const auto& a : agg_agents_) a->ckpt_restore(r);
  migration_->ckpt_restore(r, [this](int h) -> ShuffleClient* {
    return directory_.at(static_cast<std::size_t>(h));
  });
  for (const auto& a : owned_agents_) a->ckpt_restore(r);

  std::uint64_t pend = r.u64();
  if (pend != sim_.pending_events()) {
    throw ckpt::CkptError(
        "cloud: pending-event count after restore (" +
        std::to_string(sim_.pending_events()) +
        ") does not match the checkpoint (" + std::to_string(pend) +
        "); a timer owner serialized more or fewer events than it re-armed");
  }
  r.exit_section();
  if (!r.at_end()) {
    throw ckpt::CkptError("cloud: trailing bytes after the cloud section");
  }
}

}  // namespace vb::core
