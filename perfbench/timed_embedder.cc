#include "timed_embedder.h"

#include <chrono>
#include <stdexcept>

namespace vbbench {

using namespace vb;

namespace {

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TimedEmbedder::TimedEmbedder(arena::Embedder* inner, const sim::Simulator* sim,
                             SpanLog* spans)
    : inner_(inner), sim_(sim), spans_(spans) {
  if (inner == nullptr || sim == nullptr) {
    throw std::invalid_argument("TimedEmbedder: null embedder or simulator");
  }
}

arena::EmbedOutcome TimedEmbedder::embed(const arena::VcRequest& req,
                                         host::CustomerId c) {
  SpanScope span(spans_, "arena.embed");
  std::uint64_t events0 = sim_->events_executed();
  auto t0 = std::chrono::steady_clock::now();
  arena::EmbedOutcome o = inner_->embed(req, c);
  EmbedSample s;
  s.ns = elapsed_ns(t0);
  s.cls = o.ok ? EmbedClass::kPlaced
               : (o.cost_rejected ? EmbedClass::kGateRejected
                                  : EmbedClass::kCapacityRejected);
  samples_.push_back(s);
  embed_sim_events_ += sim_->events_executed() - events0;
  return o;
}

void TimedEmbedder::release(const arena::EmbedOutcome& o) {
  SpanScope span(spans_, "arena.release");
  inner_->release(o);
}

void TimedEmbedder::reacquire(const arena::EmbedOutcome& o) {
  SpanScope span(spans_, "arena.reacquire");
  inner_->reacquire(o);
}

}  // namespace vbbench
