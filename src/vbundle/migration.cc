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

template <class IO>
void MigrationManager::ckpt_io(
    IO& io, const std::function<ShuffleClient*(int)>& resolve) {
  io.section("migration", [&] {
    io.u64(started_);
    io.u64(completed_);
    io.f64(total_downtime_s_);
    io.f64(total_megabits_);
    io.map(shuffles_, [&](host::VmId& vm, InFlightShuffle& inf) {
      ShuffleRecord& rec = inf.rec;
      io.i64(rec.vm);
      io.i64(rec.dst_host);
      io.i64(rec.src_host);
      io.f64(rec.moved_demand);
      io.f64(rec.moved_cpu);
      io.u64(rec.trace);
      io.loading([&] {
        vm = rec.vm;
        inf.client = resolve(rec.src_host);
        if (inf.client == nullptr) {
          throw ckpt::CkptError("migration: no shuffle client for host " +
                                std::to_string(rec.src_host));
        }
      });
      sim::ckpt_timer(io, *sim_, inf.timer,
                      [this, vm = rec.vm] { finish_shuffle(vm); });
    });
  });
}

template void MigrationManager::ckpt_io(
    ckpt::Writer&, const std::function<ShuffleClient*(int)>&);
template void MigrationManager::ckpt_io(
    ckpt::Reader&, const std::function<ShuffleClient*(int)>&);

}  // namespace vb::core
