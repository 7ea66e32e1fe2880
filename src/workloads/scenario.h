// Shared scenario builders used by tests, examples, and benches.
//
// Centralizes the paper's evaluation setups: the five named customers of
// Figs. 7-8, the skewed utilization state of Fig. 9, and the
// intra-customer "chatting" traffic matrix used to score placements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hostmodel/host.h"
#include "net/flow_allocator.h"

namespace vb::load {

/// The five customers of Figs. 7-8.
const std::vector<std::string>& paper_customers();

/// Creates `count` VMs for a customer, alternating between a "standard"
/// spec (reservation 100 / limit 200 Mbps) and a "high I/O" spec
/// (reservation 200 / limit 400 Mbps), echoing the Fig. 1 example.  Returns
/// the new VM ids (unplaced).
std::vector<host::VmId> make_customer_vms(host::Fleet& fleet,
                                          host::CustomerId customer,
                                          int count);

/// Intra-customer "chatting" flows: each VM talks to `peers_per_vm` other
/// VMs of the same customer chosen deterministically from `rng`, at
/// `mbps_per_flow`.  Only placed VMs produce flows.
std::vector<net::Flow> chatting_flows(const host::Fleet& fleet,
                                      const std::vector<host::VmId>& vms,
                                      int peers_per_vm, double mbps_per_flow,
                                      Rng& rng);

/// Sets VM demands so that per-host utilization is spread over
/// [lo_util, hi_util] with roughly uniform density (Fig. 9's "initial
/// snapshot ... about half of the servers are overloaded").  Each host gets
/// a target drawn uniformly; its VMs' demands are scaled to meet it.
void skew_host_utilizations(host::Fleet& fleet, double lo_util, double hi_util,
                            Rng& rng);

}  // namespace vb::load
