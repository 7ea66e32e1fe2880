#include "arena/embedder.h"

#include <cmath>
#include <stdexcept>

namespace vb::arena {

// --- VBundleEmbedder -------------------------------------------------------

VBundleEmbedder::VBundleEmbedder(core::VBundleCloud* cloud) : cloud_(cloud) {
  if (cloud == nullptr) throw std::invalid_argument("VBundleEmbedder: null");
}

EmbedOutcome VBundleEmbedder::embed(const VcRequest& req, host::CustomerId c) {
  EmbedOutcome o;
  for (int i = 0; i < req.n_vms; ++i) {
    core::VBundleCloud::BootResult r = cloud_->boot_vm(c, req.spec);
    o.hosts_probed += static_cast<std::uint64_t>(r.visits);
    if (!r.ok) {
      if (r.vm != -1) cloud_->shutdown_vm(r.vm);
      for (host::VmId v : o.vms) cloud_->shutdown_vm(v);
      o.vms.clear();
      return o;
    }
    o.vms.push_back(r.vm);
  }
  o.ok = true;
  return o;
}

// --- FirstFitEmbedder ------------------------------------------------------

FirstFitEmbedder::FirstFitEmbedder(core::VBundleCloud* cloud)
    : cloud_(cloud), placer_(cloud != nullptr ? &cloud->fleet() : nullptr) {}

EmbedOutcome FirstFitEmbedder::embed(const VcRequest& req, host::CustomerId c) {
  EmbedOutcome o;
  for (int i = 0; i < req.n_vms; ++i) {
    std::uint64_t before = placer_.hosts_examined();
    host::VmId v = cloud_->fleet().create_vm(c, req.spec);
    int h = placer_.place(v);
    o.hosts_probed += placer_.hosts_examined() - before;
    if (h < 0) {
      cloud_->shutdown_vm(v);
      for (host::VmId placed : o.vms) cloud_->shutdown_vm(placed);
      o.vms.clear();
      return o;
    }
    o.vms.push_back(v);
  }
  o.ok = true;
  return o;
}

// --- GreedyTreeEmbedder ----------------------------------------------------

GreedyTreeEmbedder::GreedyTreeEmbedder(core::VBundleCloud* cloud)
    : cloud_(cloud),
      packer_(cloud != nullptr ? &cloud->fleet() : nullptr,
              cloud != nullptr ? &cloud->topology() : nullptr) {}

EmbedOutcome GreedyTreeEmbedder::embed(const VcRequest& req,
                                       host::CustomerId c) {
  EmbedOutcome o;
  baseline::GreedyTreePacker::Result plan = packer_.pack(req.n_vms, req.spec);
  o.hosts_probed = plan.hosts_examined;
  if (!plan.ok) return o;
  for (int i = 0; i < req.n_vms; ++i) {
    host::VmId v = cloud_->fleet().create_vm(c, req.spec);
    if (!cloud_->fleet().place(v, plan.hosts[static_cast<std::size_t>(i)])) {
      // The plan was computed against current capacity, so this only fires
      // on float-residue corner cases; treat it as a capacity rejection.
      cloud_->shutdown_vm(v);
      for (host::VmId placed : o.vms) cloud_->shutdown_vm(placed);
      o.vms.clear();
      return o;
    }
    o.vms.push_back(v);
  }
  packer_.reserve_uplinks(plan.uplink_holds);
  o.uplink_holds = std::move(plan.uplink_holds);
  o.ok = true;
  return o;
}

void GreedyTreeEmbedder::release(const EmbedOutcome& o) {
  packer_.release_uplinks(o.uplink_holds);
}

void GreedyTreeEmbedder::reacquire(const EmbedOutcome& o) {
  packer_.reserve_uplinks(o.uplink_holds);
}

// --- CompetitiveEmbedder ---------------------------------------------------

CompetitiveEmbedder::CompetitiveEmbedder(core::VBundleCloud* cloud,
                                         CompetitiveConfig cfg)
    : GreedyTreeEmbedder(cloud), cfg_(cfg) {
  if (cfg_.mu <= 1.0) {
    throw std::invalid_argument("CompetitiveEmbedder: mu must be > 1");
  }
}

double reservation_utilization(const core::VBundleCloud& cloud) {
  double free_total = cloud.fleet().free_reservation_total();
  double capacity = cloud.topology().config().host_nic_mbps *
                    static_cast<double>(cloud.num_hosts());
  return capacity > 0 ? 1.0 - free_total / capacity : 1.0;
}

EmbedOutcome CompetitiveEmbedder::embed(const VcRequest& req,
                                        host::CustomerId c) {
  double u = utilization();
  double cost = (std::pow(cfg_.mu, u) - 1.0) / (cfg_.mu - 1.0);
  if (cost > cfg_.reject_threshold) {
    EmbedOutcome o;
    o.cost_rejected = true;
    return o;
  }
  return GreedyTreeEmbedder::embed(req, c);
}

}  // namespace vb::arena
