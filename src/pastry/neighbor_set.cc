#include "pastry/neighbor_set.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace vb::pastry {

NeighborSet::NeighborSet(net::HostId owner_host, int capacity, int remote_quota)
    : owner_host_(owner_host) {
  if (capacity <= 0) throw std::invalid_argument("NeighborSet: capacity <= 0");
  int quota = std::clamp(remote_quota, 1, std::max(1, capacity / 2));
  remote_cap_ = static_cast<std::size_t>(quota);
  local_cap_ = static_cast<std::size_t>(std::max(1, capacity - quota));
}

long NeighborSet::rank(const NodeHandle& n, const net::Topology& topo) const {
  long tier = static_cast<long>(topo.proximity(owner_host_, n.host));
  long delta = std::labs(static_cast<long>(n.host) - owner_host_);
  // Tier dominates; delta breaks ties within a tier.
  return tier * 1'000'000L + delta;
}

bool NeighborSet::insert_ranked(std::vector<NodeHandle>& side, std::size_t cap,
                                const NodeHandle& candidate,
                                const net::Topology& topo) {
  // Remote entries rank by raw host distance (no tier dominance): the
  // nearest out-of-rack node may sit in the next pod, and keeping it lets
  // spillover searches percolate across pod boundaries instead of being
  // confined to the anchor's pod.
  const bool remote_side = &side == &remote_;
  auto key = [&](const NodeHandle& n) {
    return remote_side ? std::labs(static_cast<long>(n.host) - owner_host_)
                       : rank(n, topo);
  };
  // Sides are sorted by (key, id) lexicographically.  Using the id as a
  // tie-break (rather than first-learned-wins) makes a full side the unique
  // set of cap smallest candidates under a total order, so the converged
  // contents do not depend on the order candidates were offered — required
  // for the bulk-join synthesizer's order-independence guarantee.
  long r = key(candidate);
  auto pos = std::find_if(side.begin(), side.end(), [&](const NodeHandle& m) {
    long mk = key(m);
    return r < mk || (r == mk && candidate.id < m.id);
  });
  if (pos == side.end() && side.size() >= cap) return false;
  // Evict before inserting so a full side never outgrows its capacity.
  const auto at = pos - side.begin();
  if (side.capacity() < cap) side.reserve(cap);
  if (side.size() >= cap) side.pop_back();
  side.insert(side.begin() + at, candidate);
  return true;
}

bool NeighborSet::consider(const NodeHandle& candidate,
                           const net::Topology& topo) {
  if (contains(candidate)) return false;
  net::Proximity p = topo.proximity(owner_host_, candidate.host);
  bool is_local =
      p == net::Proximity::kSameHost || p == net::Proximity::kSameRack;
  return insert_ranked(is_local ? local_ : remote_,
                       is_local ? local_cap_ : remote_cap_, candidate, topo);
}

bool NeighborSet::remove(const NodeHandle& node) {
  for (auto* side : {&local_, &remote_}) {
    auto it = std::find(side->begin(), side->end(), node);
    if (it != side->end()) {
      side->erase(it);
      return true;
    }
  }
  return false;
}

std::vector<NodeHandle> NeighborSet::members() const {
  std::vector<NodeHandle> out;
  out.reserve(size());
  // Merge the two rank-sorted lists, nearest first.  Local entries always
  // rank ahead of remote ones (lower tier), so concatenation suffices.
  out.insert(out.end(), local_.begin(), local_.end());
  out.insert(out.end(), remote_.begin(), remote_.end());
  return out;
}

bool NeighborSet::contains(const NodeHandle& n) const {
  return std::find(local_.begin(), local_.end(), n) != local_.end() ||
         std::find(remote_.begin(), remote_.end(), n) != remote_.end();
}

}  // namespace vb::pastry
