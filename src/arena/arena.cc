#include "arena/arena.h"

#include <limits>
#include <stdexcept>

#include "net/traffic_matrix.h"

namespace vb::arena {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

const char* embedder_kind_name(EmbedderKind k) {
  switch (k) {
    case EmbedderKind::kVBundle: return "vbundle";
    case EmbedderKind::kFirstFit: return "first_fit";
    case EmbedderKind::kGreedyTree: return "greedy_tree";
    case EmbedderKind::kCompetitive: return "competitive";
  }
  return "?";
}

EmbedderKind embedder_kind_from(const std::string& name) {
  if (name == "vbundle") return EmbedderKind::kVBundle;
  if (name == "first_fit") return EmbedderKind::kFirstFit;
  if (name == "greedy_tree") return EmbedderKind::kGreedyTree;
  if (name == "competitive") return EmbedderKind::kCompetitive;
  throw std::invalid_argument("unknown embedder: " + name);
}

Arena::Arena(core::VBundleCloud* cloud, ArenaConfig cfg)
    : cloud_(cloud), cfg_(std::move(cfg)), gen_(cfg_.generator) {
  if (cloud == nullptr) throw std::invalid_argument("Arena: null cloud");
  switch (cfg_.embedder) {
    case EmbedderKind::kVBundle:
      embedder_ = std::make_unique<VBundleEmbedder>(cloud_);
      break;
    case EmbedderKind::kFirstFit:
      embedder_ = std::make_unique<FirstFitEmbedder>(cloud_);
      break;
    case EmbedderKind::kGreedyTree:
      embedder_ = std::make_unique<GreedyTreeEmbedder>(cloud_);
      break;
    case EmbedderKind::kCompetitive:
      embedder_ =
          std::make_unique<CompetitiveEmbedder>(cloud_, cfg_.competitive);
      break;
  }
  AdmissionController::Config acfg;
  acfg.pricing = cfg_.pricing;
  acfg.horizon_s = cfg_.horizon_s;
  acfg.slo_reject_streak = cfg_.slo_reject_streak;
  admission_ =
      std::make_unique<AdmissionController>(cloud_, embedder_.get(), acfg);
  next_sample_ = cfg_.sample_every_s > 0 ? cfg_.sample_every_s : kInf;
}

void Arena::setup_once() {
  if (setup_done_) return;
  setup_done_ = true;
  if (cfg_.demand_apply_interval_s > 0) {
    cloud_->simulator().schedule_periodic(
        0.0, cfg_.demand_apply_interval_s, [this]() {
          admission_->apply_demand(cloud_->now());
          return true;
        });
  }
  if (cfg_.enable_rebalancing) cloud_->start_rebalancing();
}

void Arena::take_sample() {
  frag_samples_.push_back(fragmentation());
  util_samples_.push_back(utilization());
}

void Arena::run_until(double until_s) {
  setup_once();
  for (;;) {
    if (!pending_ && arrivals_ < cfg_.max_requests) pending_ = gen_.next();
    double t_arr = (pending_ && arrivals_ < cfg_.max_requests)
                       ? pending_->arrival_s
                       : kInf;
    double t_dep = admission_->next_departure();
    double t_smp = next_sample_;
    double next = std::min(t_arr, std::min(t_dep, t_smp));
    if (next > until_s) break;
    if (next > cloud_->now()) cloud_->run_until(next);
    double now = std::max(cloud_->now(), next);

    // Departures first (freed capacity is visible to a same-instant
    // arrival), then the arrival, then samples — a fixed tie order keeps
    // the agenda deterministic.
    admission_->process_departures(now);
    if (pending_ && t_arr <= now) {
      VcRequest req = *pending_;
      pending_.reset();
      ++arrivals_;
      admission_->offer(req);
    }
    while (next_sample_ <= std::max(cloud_->now(), now)) {
      take_sample();
      next_sample_ += cfg_.sample_every_s;
    }
  }
  if (until_s > cloud_->now()) cloud_->run_until(until_s);
}

std::uint64_t Arena::run_closed(RequestSource& src, Embedder* e) {
  Embedder* old = e != nullptr ? admission_->set_embedder(e) : nullptr;
  std::uint64_t n = 0;
  while (std::optional<VcRequest> req = src.next()) {
    admission_->offer(*req);
    ++n;
  }
  if (old != nullptr) admission_->set_embedder(old);
  return n;
}

double Arena::fragmentation() const {
  return net::reservation_fragmentation(
      cloud_->topology(), cloud_->fleet().free_reservation_snapshot());
}

void Arena::collect_metrics(obs::MetricsRegistry& reg) const {
  const AdmissionStats& s = admission_->stats();
  reg.counter("arena.requests_offered").set(s.offered);
  reg.counter("arena.requests_accepted").set(s.accepted);
  reg.counter("arena.rejected_capacity").set(s.rejected_capacity);
  reg.counter("arena.rejected_cost").set(s.rejected_cost);
  reg.counter("arena.vms_accepted").set(s.vms_accepted);
  reg.counter("arena.hosts_probed").set(s.hosts_probed);
  reg.counter("arena.slo_violations").set(admission_->slo_violations());
  reg.counter("arena.active_bundles")
      .set(static_cast<std::uint64_t>(admission_->active().size()));
  reg.counter("arena.migration_churn").set(cloud_->migrations().completed());
  reg.counter("arena.decision_fingerprint").set(s.decision_fingerprint);
  reg.gauge("arena.acceptance_rate").set(s.acceptance_rate());
  reg.gauge("arena.revenue").set(s.revenue);
  reg.gauge("arena.offered_revenue").set(s.offered_revenue);
  reg.gauge("arena.revenue_capture")
      .set(s.offered_revenue > 0 ? s.revenue / s.offered_revenue : 0.0);
  reg.gauge("arena.fragmentation").set(fragmentation());
  reg.gauge("arena.utilization").set(utilization());
  obs::Distribution& fd = reg.distribution("arena.fragmentation_samples");
  fd.reset();
  for (double v : frag_samples_) fd.observe(v);
  obs::Distribution& ud = reg.distribution("arena.utilization_samples");
  ud.reset();
  for (double v : util_samples_) ud.observe(v);
}

template <class IO>
void Arena::ckpt_io(IO& io) {
  // Save quiesces the cloud first; restore applies its image last.
  std::string cloud_image;
  if constexpr (!IO::kLoading) {
    std::vector<std::uint8_t> img = cloud_->save_checkpoint();
    cloud_image.assign(img.begin(), img.end());
  }
  io.section("arena", [&] {
    bool had_setup = setup_done_;
    io.section("arena_loop", [&] {
      EmbedderKind kind = cfg_.embedder;
      std::uint64_t max_requests = cfg_.max_requests;
      double horizon = cfg_.horizon_s;
      io.u8(kind);
      io.u64(max_requests);
      io.f64(horizon);
      io.loading([&] {
        if (kind != cfg_.embedder || max_requests != cfg_.max_requests ||
            horizon != cfg_.horizon_s) {
          throw ckpt::CkptError(
              "arena: checkpoint was taken under a different ArenaConfig");
        }
      });
      io.u64(arrivals_);
      io.f64(next_sample_);
      io.boolean(had_setup);
      io.opt(pending_, [&](VcRequest& req) { req.ckpt_io(io); });
      io.seq(frag_samples_, [&](double& v) { io.f64(v); });
      io.seq(util_samples_, [&](double& v) { io.f64(v); });
    });

    gen_.ckpt_io(io);

    // Re-run the deterministic setup on the fresh cloud (demand pass timer,
    // rebalancing ticks), re-register customers and rebuild the uplink
    // ledgers, and only then restore the cloud image — which re-arms every
    // timer at its original (fire_time, seq) and verifies the
    // reconstruction.
    io.loading([&] {
      if (had_setup) setup_once();
    });
    admission_->ckpt_io(io);

    io.section("cloud_image", [&] { io.str(cloud_image); });
  });
  io.loading([&] {
    cloud_->restore_checkpoint(
        std::vector<std::uint8_t>(cloud_image.begin(), cloud_image.end()));
  });
}

std::vector<std::uint8_t> Arena::save_checkpoint() {
  ckpt::Writer w;
  ckpt_io(w);
  return w.finish();
}

void Arena::restore_checkpoint(const std::vector<std::uint8_t>& image) {
  ckpt::Reader r(image);
  ckpt_io(r);
}

}  // namespace vb::arena
