// TimedEmbedder: a passive decorator around an arena::Embedder.
//
// Installed with AdmissionController::set_embedder, it forwards embed,
// release and reacquire to the wrapped embedder unchanged, and records for
// each embed call its host time, the simulator events it executed (v-Bundle
// placement steps the simulator inline), and its outcome class: placed,
// capacity-rejected or gate-rejected.  With a SpanLog attached, every call
// is also an "arena.embed" / "arena.release" / "arena.reacquire" span.
//
// Passive means the campaign it observes is unchanged: a decorated and an
// undecorated campaign of one seed end with the same decision fingerprint,
// which the benchmark checks on every run.
#pragma once

#include <cstdint>
#include <vector>

#include "arena/embedder.h"
#include "sim/simulator.h"
#include "span_log.h"

namespace vbbench {

enum class EmbedClass { kPlaced, kCapacityRejected, kGateRejected };

struct EmbedSample {
  std::int64_t ns = 0;
  EmbedClass cls = EmbedClass::kPlaced;
};

class TimedEmbedder : public vb::arena::Embedder {
 public:
  /// `inner` and `sim` must outlive the decorator; `spans` may be null.
  TimedEmbedder(vb::arena::Embedder* inner, const vb::sim::Simulator* sim,
                SpanLog* spans);

  const char* name() const override { return inner_->name(); }
  vb::arena::EmbedOutcome embed(const vb::arena::VcRequest& req,
                                vb::host::CustomerId c) override;
  void release(const vb::arena::EmbedOutcome& o) override;
  void reacquire(const vb::arena::EmbedOutcome& o) override;

  const std::vector<EmbedSample>& samples() const { return samples_; }
  /// Simulator events executed inside embed calls.
  std::uint64_t embed_sim_events() const { return embed_sim_events_; }

 private:
  vb::arena::Embedder* inner_;
  const vb::sim::Simulator* sim_;
  SpanLog* spans_;
  std::vector<EmbedSample> samples_;
  std::uint64_t embed_sim_events_ = 0;
};

}  // namespace vbbench
