#include "workloads/scenario.h"

#include <algorithm>

namespace vb::load {

const std::vector<std::string>& paper_customers() {
  static const std::vector<std::string> kNames = {"Accolade", "Beenox",
                                                  "Crystal", "Deck13", "Epyx"};
  return kNames;
}

std::vector<host::VmId> make_customer_vms(host::Fleet& fleet,
                                          host::CustomerId customer,
                                          int count) {
  std::vector<host::VmId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    host::VmSpec spec;
    if (i % 2 == 0) {
      spec.reservation_mbps = 100.0;  // "standard" instance of Fig. 1
      spec.limit_mbps = 200.0;
    } else {
      spec.reservation_mbps = 200.0;  // "high I/O" instance of Fig. 1
      spec.limit_mbps = 400.0;
    }
    out.push_back(fleet.create_vm(customer, spec));
  }
  return out;
}

std::vector<net::Flow> chatting_flows(const host::Fleet& fleet,
                                      const std::vector<host::VmId>& vms,
                                      int peers_per_vm, double mbps_per_flow,
                                      Rng& rng) {
  std::vector<net::Flow> flows;
  if (vms.size() < 2) return flows;
  for (host::VmId v : vms) {
    const host::Vm& src = fleet.vm(v);
    if (src.host == -1) continue;
    for (int p = 0; p < peers_per_vm; ++p) {
      host::VmId peer = vms[rng.index(vms.size())];
      if (peer == v) continue;
      const host::Vm& dst = fleet.vm(peer);
      if (dst.host == -1) continue;
      flows.push_back(net::Flow{src.host, dst.host, mbps_per_flow});
    }
  }
  return flows;
}

void skew_host_utilizations(host::Fleet& fleet, double lo_util, double hi_util,
                            Rng& rng) {
  for (int h = 0; h < fleet.num_hosts(); ++h) {
    const host::Host& hh = fleet.host(h);
    if (hh.vms().empty()) continue;
    double target = rng.uniform(lo_util, hi_util);
    double target_mbps = target * hh.capacity_mbps();
    double per_vm = target_mbps / static_cast<double>(hh.vms().size());
    for (host::VmId id : hh.vms()) {
      // Demands above the VM limit are clipped by capped_demand(); spread
      // the residual over the remaining VMs to keep the host total close to
      // the target.
      const host::Vm& v = fleet.vm(id);
      double d = std::min(per_vm, v.spec.limit_mbps);
      fleet.set_demand(id, d);
    }
  }
}

}  // namespace vb::load
