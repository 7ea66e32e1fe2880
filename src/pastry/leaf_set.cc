#include "pastry/leaf_set.h"

#include <algorithm>
#include <stdexcept>

namespace vb::pastry {

namespace {

// Clockwise ring distance from a to b (how far b is ahead of a).
U128 cw_dist(const U128& a, const U128& b) { return b - a; }

}  // namespace

LeafSet::LeafSet(const U128& owner, int half) : owner_(owner), half_(half) {
  if (half <= 0) throw std::invalid_argument("LeafSet: half must be positive");
}

bool LeafSet::consider(const NodeHandle& candidate) {
  if (candidate.id == owner_) return false;
  if (contains(candidate)) return false;

  // A node is "clockwise" if it is nearer going clockwise than counter-
  // clockwise; ties (exact antipode) go clockwise.
  U128 d_cw = cw_dist(owner_, candidate.id);
  U128 d_ccw = cw_dist(candidate.id, owner_);
  bool clockwise = d_cw <= d_ccw;
  auto& side = clockwise ? cw_ : ccw_;
  const U128& dist = clockwise ? d_cw : d_ccw;

  auto dist_of = [this, clockwise](const NodeHandle& n) {
    return clockwise ? cw_dist(owner_, n.id) : cw_dist(n.id, owner_);
  };

  const auto cap = static_cast<std::size_t>(half_);
  auto pos = std::find_if(side.begin(), side.end(),
                          [&](const NodeHandle& n) { return dist < dist_of(n); });
  if (pos == side.end() && side.size() >= cap) {
    return false;  // farther than all current members of a full side
  }
  // Evict before inserting so a full side never outgrows its capacity.
  const auto at = pos - side.begin();
  if (side.capacity() < cap) side.reserve(cap);
  if (side.size() >= cap) side.pop_back();
  side.insert(side.begin() + at, candidate);
  return true;
}

bool LeafSet::remove(const NodeHandle& node) {
  for (auto* side : {&cw_, &ccw_}) {
    auto it = std::find(side->begin(), side->end(), node);
    if (it != side->end()) {
      side->erase(it);
      return true;
    }
  }
  return false;
}

bool LeafSet::covers(const U128& key) const {
  if (key == owner_) return true;
  // An under-full side means we know of no farther node on that side, so the
  // leaf set's view extends to the whole remaining ring on that side.
  bool cw_open = cw_.size() < static_cast<std::size_t>(half_);
  bool ccw_open = ccw_.size() < static_cast<std::size_t>(half_);
  U128 d_cw = cw_dist(owner_, key);
  U128 d_ccw = cw_dist(key, owner_);
  if (d_cw <= d_ccw) {
    if (cw_open) return true;
    return d_cw <= cw_dist(owner_, cw_.back().id);
  }
  if (ccw_open) return true;
  return d_ccw <= cw_dist(ccw_.back().id, owner_);
}

NodeHandle LeafSet::closest(const U128& key, const NodeHandle& owner_handle) const {
  NodeHandle best = owner_handle;
  for (const auto* side : {&cw_, &ccw_}) {
    for (const NodeHandle& n : *side) {
      if (closer_on_ring(key, n.id, best.id)) best = n;
    }
  }
  return best;
}

std::vector<NodeHandle> LeafSet::members() const {
  std::vector<NodeHandle> out;
  out.reserve(size());
  out.insert(out.end(), cw_.begin(), cw_.end());
  out.insert(out.end(), ccw_.begin(), ccw_.end());
  return out;
}

NodeHandle LeafSet::farthest_cw() const {
  return cw_.empty() ? kNoHandle : cw_.back();
}

NodeHandle LeafSet::farthest_ccw() const {
  return ccw_.empty() ? kNoHandle : ccw_.back();
}

bool LeafSet::contains(const NodeHandle& n) const {
  return std::find(cw_.begin(), cw_.end(), n) != cw_.end() ||
         std::find(ccw_.begin(), ccw_.end(), n) != ccw_.end();
}

}  // namespace vb::pastry
