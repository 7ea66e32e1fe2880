// Topology-aware nodeId assignment properties (§II.B + Fig. 7 discussion):
// hosts in one rack are numerically contiguous, adjacent ring segments
// belong to physically distant racks, ids are unique and deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "vbundle/id_assigner.h"

namespace vb::core {
namespace {

net::Topology topo(int pods, int racks, int hosts) {
  net::TopologyConfig c;
  c.num_pods = pods;
  c.racks_per_pod = racks;
  c.hosts_per_rack = hosts;
  return net::Topology(c);
}

TEST(BitReversedOrder, PowerOfTwo) {
  auto o = TopologyAwareIdAssigner::bit_reversed_order(8);
  EXPECT_EQ(o, (std::vector<int>{0, 4, 2, 6, 1, 5, 3, 7}));
}

TEST(BitReversedOrder, NonPowerOfTwoIsPermutation) {
  for (int n : {1, 3, 5, 6, 7, 12, 100}) {
    auto o = TopologyAwareIdAssigner::bit_reversed_order(n);
    ASSERT_EQ(static_cast<int>(o.size()), n);
    std::set<int> s(o.begin(), o.end());
    EXPECT_EQ(static_cast<int>(s.size()), n);
    EXPECT_EQ(*s.begin(), 0);
    EXPECT_EQ(*s.rbegin(), n - 1);
  }
  EXPECT_THROW(TopologyAwareIdAssigner::bit_reversed_order(0),
               std::invalid_argument);
}

TEST(BitReversedOrder, AdjacentEntriesAreDistantIndices) {
  // Consecutive ring segments must belong to far-apart rack indices.
  auto o = TopologyAwareIdAssigner::bit_reversed_order(16);
  for (std::size_t i = 1; i < o.size(); ++i) {
    EXPECT_GE(std::abs(o[i] - o[i - 1]), 2);
  }
}

TEST(IdAssigner, IdsAreUniqueAndDeterministic) {
  net::Topology t = topo(2, 4, 8);
  TopologyAwareIdAssigner a(t, 7), b(t, 7), c(t, 8);
  std::set<U128> seen;
  bool any_differs = false;
  for (int h = 0; h < t.num_hosts(); ++h) {
    EXPECT_TRUE(seen.insert(a.id_for_host(h)).second);
    EXPECT_EQ(a.id_for_host(h), b.id_for_host(h));
    any_differs |= a.id_for_host(h) != c.id_for_host(h);
  }
  EXPECT_TRUE(any_differs);  // different seed jitters the low bits
}

TEST(IdAssigner, RackHostsAreNumericallyContiguous) {
  net::Topology t = topo(1, 8, 8);
  TopologyAwareIdAssigner a(t, 42);
  // Sorting all hosts by id must group each rack's hosts together.
  std::vector<int> hosts(static_cast<std::size_t>(t.num_hosts()));
  for (int h = 0; h < t.num_hosts(); ++h) hosts[static_cast<std::size_t>(h)] = h;
  std::sort(hosts.begin(), hosts.end(), [&](int x, int y) {
    return a.id_for_host(x) < a.id_for_host(y);
  });
  for (std::size_t i = 0; i < hosts.size(); i += 8) {
    std::set<int> racks;
    for (std::size_t j = i; j < i + 8; ++j) racks.insert(t.rack_of(hosts[j]));
    EXPECT_EQ(racks.size(), 1u) << "rack block starting at " << i;
  }
}

TEST(IdAssigner, HostsOrderedWithinRackSegment) {
  net::Topology t = topo(1, 4, 8);
  TopologyAwareIdAssigner a(t, 42);
  for (int r = 0; r < t.num_racks(); ++r) {
    for (int s = 1; s < 8; ++s) {
      int prev = t.rack_first_host(r) + s - 1;
      int cur = t.rack_first_host(r) + s;
      EXPECT_LT(a.id_for_host(prev), a.id_for_host(cur));
    }
  }
}

TEST(IdAssigner, AdjacentRingSegmentsAreRemoteRacks) {
  net::Topology t = topo(1, 16, 4);
  TopologyAwareIdAssigner a(t, 1);
  // Map segment position -> rack, then check neighbors on the ring are
  // physically distant rack indices.
  std::map<int, int> seg_to_rack;
  for (int r = 0; r < 16; ++r) seg_to_rack[a.segment_of_rack(r)] = r;
  for (int s = 1; s < 16; ++s) {
    int r1 = seg_to_rack[s - 1];
    int r2 = seg_to_rack[s];
    EXPECT_GE(std::abs(r1 - r2), 2)
        << "segments " << s - 1 << "," << s << " map to adjacent racks";
  }
}

}  // namespace
}  // namespace vb::core
