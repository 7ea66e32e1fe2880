// Pastry leaf set: the L/2 numerically closest nodes on each side of the
// owner's id on the ring.
//
// The leaf set completes the last routing step ("route to the numerically
// closest node") and is the first line of failure repair (§II.A.2).  It is
// also what makes v-Bundle's key-based placement land on a well-defined
// server: the owner of a key is the node whose id is numerically closest.
#pragma once

#include <optional>
#include <vector>

#include "ckpt/format.h"
#include "common/u128.h"
#include "pastry/node_id.h"

namespace vb::pastry {

class LeafSet {
 public:
  /// `half` = L/2, the number of neighbors kept on each side (default 8,
  /// i.e. |L| = 16, the classic Pastry configuration).
  explicit LeafSet(const U128& owner, int half = 8);

  /// Inserts `candidate` if it belongs among the closest `half` nodes on its
  /// side.  Returns true if the set changed.
  bool consider(const NodeHandle& candidate);

  /// Removes a failed node.  Returns true if found.
  bool remove(const NodeHandle& node);

  /// True if `key` falls within [leftmost leaf, rightmost leaf] (ring
  /// interval around the owner), meaning the leaf set can answer the final
  /// routing step authoritatively.  Also true when the set is not yet full
  /// (a small ring is fully covered by the leaf set).
  bool covers(const U128& key) const;

  /// The member (or the owner itself) numerically closest to `key`.
  /// `owner_handle` supplies the owner's handle so it can be returned.
  NodeHandle closest(const U128& key, const NodeHandle& owner_handle) const;

  /// All current members, clockwise side then counter-clockwise side.
  std::vector<NodeHandle> members() const;

  /// Visits all members (clockwise side then counter-clockwise side)
  /// without materializing a vector — the routing fast path iterates leaves
  /// on every hop and must not allocate.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const NodeHandle& n : cw_) fn(n);
    for (const NodeHandle& n : ccw_) fn(n);
  }

  /// Extreme members (farthest on each side); used by join/repair to extend
  /// coverage.  May be invalid handles when the set is empty.
  NodeHandle farthest_cw() const;
  NodeHandle farthest_ccw() const;

  bool contains(const NodeHandle& n) const;
  std::size_t size() const { return cw_.size() + ccw_.size(); }
  int half() const { return half_; }
  const U128& owner() const { return owner_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Half-width, then each side.  Restore refuses a different half-width
  /// and a side larger than it.
  template <class IO>
  void ckpt_io(IO& io) {
    int half = half_;
    io.i64(half);
    io.loading([&] {
      if (half != half_) throw ckpt::CkptError("leaf set: half-width mismatch");
    });
    for (std::vector<NodeHandle>* side : {&cw_, &ccw_}) {
      io.seq(*side, [&](NodeHandle& n) { n.ckpt_io(io); });
      io.loading([&] {
        if (side->size() > static_cast<std::size_t>(half_)) {
          throw ckpt::CkptError("leaf set: side larger than half-width");
        }
      });
    }
  }

 private:
  // cw_ holds nodes at increasing clockwise distance (id - owner mod 2^128);
  // ccw_ at increasing counter-clockwise distance.  Both sorted by distance.
  U128 owner_;
  int half_;
  std::vector<NodeHandle> cw_;
  std::vector<NodeHandle> ccw_;
};

}  // namespace vb::pastry
