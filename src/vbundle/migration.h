// Live-migration manager with a simple cost/benefit gate (§V.B, §VII).
//
// Migration moves a VM's memory over the network: duration ~ RAM size over
// the migration rate, plus a brief stop-and-copy downtime.  The paper
// "applies cost-benefit analysis before any actual migrations" and lists a
// predictive cost-benefit module as future work; we implement the natural
// version: migrate only when the bandwidth deficit relieved over the
// expected stability window outweighs the bytes moved.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "ckpt/format.h"
#include "hostmodel/host.h"
#include "sim/simulator.h"

namespace vb::core {

struct MigrationConfig {
  double rate_mbps = 1000.0;   ///< bandwidth used to copy memory
  double downtime_s = 0.2;     ///< stop-and-copy pause
  // Note: like the paper's simulation, we "ignore that migration itself
  // consumes bandwidth"; the cost/benefit gate below is the knob that
  // accounts for migration cost instead.
  /// Cost/benefit: expected stability window (how long the relieved deficit
  /// is assumed to persist).  benefit = deficit_mbps * window; cost =
  /// ram_bits / rate * rate = ram transferred.  Gate passes when
  /// benefit >= cost_factor * ram_megabits.  cost_factor = 0 disables the
  /// gate (always migrate), matching the paper's main experiments.
  double stability_window_s = 600.0;
  double cost_factor = 0.0;
};

/// Everything the shuffler needs to finish a shed after cutover.  Plain data
/// so an in-flight migration can ride a checkpoint and be re-armed on
/// restore (src/ckpt).
struct ShuffleRecord {
  host::VmId vm = -1;
  int dst_host = -1;
  int src_host = -1;          ///< shedder that owns the completion callback
  double moved_demand = 0.0;  ///< capped bandwidth demand moved off the source
  double moved_cpu = 0.0;     ///< capped CPU demand moved off the source
  std::uint64_t trace = 0;    ///< shuffle cascade span id
};

/// Completion sink for shuffle-initiated migrations.  Implemented by the
/// per-host VBundleAgent; keeping the interface here avoids a circular
/// include with controller.h.
class ShuffleClient {
 public:
  virtual ~ShuffleClient() = default;
  virtual void shuffle_migration_done(const ShuffleRecord& rec) = 0;
};

/// Tracks in-flight migrations and applies them to the fleet when done.
class MigrationManager {
 public:
  MigrationManager(sim::Simulator* sim, host::Fleet* fleet,
                   MigrationConfig cfg);

  const MigrationConfig& config() const { return cfg_; }

  /// Time to move `vm` (seconds).
  double duration_s(const host::Vm& vm) const;

  /// Cost/benefit gate: should we move a VM whose unsatisfied demand is
  /// `deficit_mbps`?
  bool worth_migrating(const host::Vm& vm, double deficit_mbps) const;

  /// Starts a live migration of `rec.vm` to `rec.dst_host`, which must
  /// already hold the reservation via Host::hold.  At cutover the hold
  /// becomes the VM's reservation and `client->shuffle_migration_done(rec)`
  /// fires.  Returns the expected completion time.  Fully serializable: an
  /// in-flight migration survives checkpoint/restore.
  sim::SimTime start_shuffle(const ShuffleRecord& rec, ShuffleClient* client);

  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t in_flight() const { return started_ - completed_; }
  double total_downtime_s() const { return total_downtime_s_; }
  double total_megabits_moved() const { return total_megabits_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Counters and every in-flight shuffle migration (record plus its
  /// completion timer).  On restore `resolve` maps a
  /// ShuffleRecord::src_host to its completion sink (the reconstructed
  /// agent on that host).
  template <class IO>
  void ckpt_io(IO& io, const std::function<ShuffleClient*(int)>& resolve);

 private:
  struct InFlightShuffle {
    ShuffleRecord rec;
    ShuffleClient* client = nullptr;
    sim::EventId timer{};
  };
  void finish_shuffle(host::VmId vm);

  sim::Simulator* sim_;
  host::Fleet* fleet_;
  MigrationConfig cfg_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  double total_downtime_s_ = 0.0;
  double total_megabits_ = 0.0;
  std::map<host::VmId, InFlightShuffle> shuffles_;
};

}  // namespace vb::core
