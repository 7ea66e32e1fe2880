// Topology-aware nodeId assignment (§II.B).
//
// "A centralized certificate authority assigns each server a unique Id ...
// nodeIds are assigned to be in accordance with the hierarchical structure
// of the data center.  The numerically adjacent nodes are also physically
// close to each other."  And, per the Fig. 7 discussion, "the adjacent
// servers across racks will be assigned remote nodeIds" so a customer
// spilling past a rack's id segment does not silently land in the
// physically adjacent rack.
//
// Implementation: the id ring is divided into one contiguous segment per
// rack; segments are ordered by the *bit-reversed* rack index, so segments
// adjacent on the ring belong to physically distant racks while servers
// within a rack stay numerically contiguous.  Hosts occupy evenly spaced
// positions within their rack's segment, plus seeded jitter in the low bits
// to keep ids unique and unpredictable.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/u128.h"
#include "net/topology.h"

namespace vb::core {

class TopologyAwareIdAssigner {
 public:
  TopologyAwareIdAssigner(const net::Topology& topo, std::uint64_t seed);

  /// The id assigned to host `h`.
  U128 id_for_host(net::HostId h) const;

  /// The ring position (0..num_racks-1) of rack `rack`'s segment.
  int segment_of_rack(int rack) const;

  /// Enumerates 0..n-1 in bit-reversed order (padded to the next power of
  /// two, out-of-range values skipped).  Exposed for tests.
  static std::vector<int> bit_reversed_order(int n);

 private:
  const net::Topology* topo_;
  std::vector<int> rack_segment_;  // rack -> segment position on the ring
  std::vector<U128> host_id_;      // host -> assigned id
};

}  // namespace vb::core
