// Pluggable VC(N, B) embedders behind one interface.
//
// The arena compares three ways of answering "can this bundle be placed,
// and where":
//
//   VBundleEmbedder     — the paper's system: each VM boots through the DHT
//                         placement protocol near the tenant's key, and the
//                         background shuffling service keeps rebalancing.
//   GreedyTreeEmbedder  — Oktopus-style oversubscription-aware tree packing
//                         (baselines::GreedyTreePacker): lowest subtree
//                         first, explicit ToR/agg uplink budgets.
//   CompetitiveEmbedder — online algorithm in the exponential-cost-function
//                         family (arXiv:1810.03162): reject when the fleet's
//                         congestion cost mu^u - 1 exceeds a configurable
//                         threshold, place via tree packing otherwise.
//   FirstFitEmbedder    — the Fig. 8b greedy scan, for closed-world
//                         equivalence with the original benchmark loop.
//
// All embedders are gang (all-or-nothing): a bundle either gets all N VMs
// or leaves no trace in the fleet.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "arena/request.h"
#include "baselines/greedy_placement.h"
#include "vbundle/cloud.h"

namespace vb::arena {

/// Result of one embedding attempt.
struct EmbedOutcome {
  bool ok = false;
  /// True when a cost/utilization gate (not capacity) rejected the request.
  bool cost_rejected = false;
  std::vector<host::VmId> vms;  ///< created + placed VMs, in bundle order
  std::uint64_t hosts_probed = 0;
  /// Uplink bandwidth ledgered by a tree-packing embedder; returned on
  /// departure via release().
  std::vector<std::pair<net::LinkId, double>> uplink_holds;
};

class Embedder {
 public:
  virtual ~Embedder() = default;
  virtual const char* name() const = 0;
  /// Attempts to place all N VMs of `req` for customer `c`; on failure the
  /// fleet is left as if the request never arrived (placed VMs rolled back).
  virtual EmbedOutcome embed(const VcRequest& req, host::CustomerId c) = 0;
  /// Called when an accepted bundle departs, after its VMs are destroyed.
  virtual void release(const EmbedOutcome& /*o*/) {}
  /// Re-applies embedder-side ledger state for a bundle restored from a
  /// checkpoint (the fleet side rides the cloud image; uplink ledgers live
  /// here and must be rebuilt).
  virtual void reacquire(const EmbedOutcome& /*o*/) {}
};

/// The paper's system as an embedder: boot_vm per VM through the overlay.
class VBundleEmbedder : public Embedder {
 public:
  explicit VBundleEmbedder(core::VBundleCloud* cloud);
  const char* name() const override { return "vbundle"; }
  EmbedOutcome embed(const VcRequest& req, host::CustomerId c) override;

 private:
  core::VBundleCloud* cloud_;
};

/// Fig. 8b's greedy first-fit scan, one VM at a time.
class FirstFitEmbedder : public Embedder {
 public:
  explicit FirstFitEmbedder(core::VBundleCloud* cloud);
  const char* name() const override { return "first_fit"; }
  EmbedOutcome embed(const VcRequest& req, host::CustomerId c) override;

 private:
  core::VBundleCloud* cloud_;
  baseline::GreedyPlacer placer_;
};

/// Oktopus-style tree packing with explicit uplink budgets.
class GreedyTreeEmbedder : public Embedder {
 public:
  explicit GreedyTreeEmbedder(core::VBundleCloud* cloud);
  const char* name() const override { return "greedy_tree"; }
  EmbedOutcome embed(const VcRequest& req, host::CustomerId c) override;
  void release(const EmbedOutcome& o) override;
  void reacquire(const EmbedOutcome& o) override;

  baseline::GreedyTreePacker& packer() { return packer_; }

 protected:
  core::VBundleCloud* cloud_;
  baseline::GreedyTreePacker packer_;
};

/// Fleet bandwidth-reservation utilization in [0, 1], from the Fleet's
/// cached free-capacity total.
double reservation_utilization(const core::VBundleCloud& cloud);

struct CompetitiveConfig {
  /// Base of the exponential congestion cost mu^u - 1; higher = admits more
  /// at low load, cuts off more sharply near saturation.
  double mu = 16.0;
  /// Reject when normalized cost (mu^u - 1)/(mu - 1) exceeds this; 1.0
  /// disables the gate, lower values keep proportionally more headroom.
  double reject_threshold = 0.6;
};

/// Exponential-cost online admission (arXiv:1810.03162 family) on top of
/// tree packing.  The gate reads utilization from the Fleet's cached
/// free-capacity total (host::Fleet::free_reservation_total), which is kept
/// up to date by every reservation change, so a request costs no fleet scan
/// before the packer runs.
class CompetitiveEmbedder : public GreedyTreeEmbedder {
 public:
  CompetitiveEmbedder(core::VBundleCloud* cloud, CompetitiveConfig cfg);
  const char* name() const override { return "competitive"; }
  EmbedOutcome embed(const VcRequest& req, host::CustomerId c) override;

  /// Current fleet bandwidth-reservation utilization in [0, 1].
  double utilization() const { return reservation_utilization(*cloud_); }

 private:
  CompetitiveConfig cfg_;
};

}  // namespace vb::arena
