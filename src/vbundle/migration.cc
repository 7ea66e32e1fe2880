#include "vbundle/migration.h"

#include <stdexcept>
#include <string>

namespace vb::core {

MigrationManager::MigrationManager(sim::Simulator* sim, host::Fleet* fleet,
                                   MigrationConfig cfg)
    : sim_(sim), fleet_(fleet), cfg_(cfg) {
  if (sim == nullptr || fleet == nullptr) {
    throw std::invalid_argument("MigrationManager: null dependency");
  }
  if (cfg.rate_mbps <= 0 || cfg.downtime_s < 0) {
    throw std::invalid_argument("MigrationManager: bad config");
  }
}

double MigrationManager::duration_s(const host::Vm& vm) const {
  double megabits = vm.spec.ram_mb * 8.0;
  return megabits / cfg_.rate_mbps + cfg_.downtime_s;
}

bool MigrationManager::worth_migrating(const host::Vm& vm,
                                       double deficit_mbps) const {
  if (cfg_.cost_factor <= 0.0) return true;
  double benefit = deficit_mbps * cfg_.stability_window_s;  // megabits gained
  double cost = vm.spec.ram_mb * 8.0;                       // megabits moved
  return benefit >= cfg_.cost_factor * cost;
}

sim::SimTime MigrationManager::start_shuffle(const ShuffleRecord& rec,
                                             ShuffleClient* client) {
  if (client == nullptr) {
    throw std::invalid_argument("MigrationManager::start_shuffle: null client");
  }
  host::Vm& v = fleet_->vm(rec.vm);
  if (v.host == -1) throw std::logic_error("MigrationManager: VM not placed");
  if (v.migrating) throw std::logic_error("MigrationManager: already migrating");
  v.migrating = true;
  double dur = duration_s(v);
  ++started_;
  total_downtime_s_ += cfg_.downtime_s;
  total_megabits_ += v.spec.ram_mb * 8.0;
  sim::SimTime done_at = sim_->now() + dur;
  InFlightShuffle inf;
  inf.rec = rec;
  inf.client = client;
  inf.timer = sim_->schedule_at(done_at,
                                [this, vm = rec.vm]() { finish_shuffle(vm); });
  shuffles_[rec.vm] = inf;
  return done_at;
}

void MigrationManager::finish_shuffle(host::VmId vm) {
  auto it = shuffles_.find(vm);
  if (it == shuffles_.end()) {
    throw std::logic_error("MigrationManager: unknown shuffle completion");
  }
  InFlightShuffle inf = it->second;
  shuffles_.erase(it);
  // Cutover: the receiver's hold becomes the real reservation.
  fleet_->migrate(inf.rec.vm, inf.rec.dst_host, /*consume_hold=*/true);
  ++completed_;
  inf.client->shuffle_migration_done(inf.rec);
}

void MigrationManager::ckpt_save(ckpt::Writer& w) const {
  w.begin_section("migration");
  w.u64(started_);
  w.u64(completed_);
  w.f64(total_downtime_s_);
  w.f64(total_megabits_);
  w.u32(static_cast<std::uint32_t>(shuffles_.size()));
  for (const auto& [vm, inf] : shuffles_) {
    w.i64(inf.rec.vm);
    w.i64(inf.rec.dst_host);
    w.i64(inf.rec.src_host);
    w.f64(inf.rec.moved_demand);
    w.f64(inf.rec.moved_cpu);
    w.u64(inf.rec.trace);
    w.f64(sim_->event_time(inf.timer));
    w.u64(sim_->event_seq(inf.timer));
  }
  w.end_section();
}

void MigrationManager::ckpt_restore(
    ckpt::Reader& r, const std::function<ShuffleClient*(int)>& resolve) {
  r.enter_section("migration");
  started_ = r.u64();
  completed_ = r.u64();
  total_downtime_s_ = r.f64();
  total_megabits_ = r.f64();
  shuffles_.clear();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    InFlightShuffle inf;
    inf.rec.vm = static_cast<host::VmId>(r.i64());
    inf.rec.dst_host = static_cast<int>(r.i64());
    inf.rec.src_host = static_cast<int>(r.i64());
    inf.rec.moved_demand = r.f64();
    inf.rec.moved_cpu = r.f64();
    inf.rec.trace = r.u64();
    sim::SimTime fire = r.f64();
    std::uint64_t seq = r.u64();
    inf.client = resolve(inf.rec.src_host);
    if (inf.client == nullptr) {
      throw ckpt::CkptError("migration: no shuffle client for host " +
                            std::to_string(inf.rec.src_host));
    }
    inf.timer = sim_->schedule_at_with_seq(
        fire, seq, [this, vm = inf.rec.vm]() { finish_shuffle(vm); });
    shuffles_[inf.rec.vm] = inf;
  }
  r.exit_section();
}

}  // namespace vb::core
