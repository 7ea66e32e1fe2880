#include "vbundle/id_assigner.h"

#include <cmath>
#include <set>
#include <stdexcept>

namespace vb::core {

std::vector<int> TopologyAwareIdAssigner::bit_reversed_order(int n) {
  if (n <= 0) throw std::invalid_argument("bit_reversed_order: n <= 0");
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < (1 << bits); ++i) {
    int rev = 0;
    for (int b = 0; b < bits; ++b) {
      if (i & (1 << b)) rev |= 1 << (bits - 1 - b);
    }
    if (rev < n) order.push_back(rev);
  }
  return order;
}

TopologyAwareIdAssigner::TopologyAwareIdAssigner(const net::Topology& topo,
                                                 std::uint64_t seed)
    : topo_(&topo) {
  const int racks = topo.num_racks();
  const int per_rack = topo.config().hosts_per_rack;

  // order[s] = rack owning ring segment s; invert to rack -> segment.
  std::vector<int> order = bit_reversed_order(racks);
  rack_segment_.assign(static_cast<std::size_t>(racks), 0);
  for (int s = 0; s < racks; ++s) {
    rack_segment_[static_cast<std::size_t>(order[static_cast<std::size_t>(s)])] = s;
  }

  Rng rng(seed);
  host_id_.resize(static_cast<std::size_t>(topo.num_hosts()));
  std::set<U128> used;
  for (net::HostId h = 0; h < topo.num_hosts(); ++h) {
    int rack = topo.rack_of(h);
    int slot = topo.slot_in_rack(h);
    int segment = rack_segment_[static_cast<std::size_t>(rack)];
    // Fractional ring position in [0, 1): segment start plus the host's slot
    // centered within the segment.
    double frac = (static_cast<double>(segment) +
                   (static_cast<double>(slot) + 0.5) / per_rack) /
                  racks;
    auto hi = static_cast<std::uint64_t>(frac * 0x1.0p64);
    U128 id{hi, rng.next_u64()};
    while (used.contains(id)) id = U128{hi, rng.next_u64()};
    used.insert(id);
    host_id_[static_cast<std::size_t>(h)] = id;
  }
}

U128 TopologyAwareIdAssigner::id_for_host(net::HostId h) const {
  return host_id_.at(static_cast<std::size_t>(h));
}

int TopologyAwareIdAssigner::segment_of_rack(int rack) const {
  return rack_segment_.at(static_cast<std::size_t>(rack));
}

}  // namespace vb::core
