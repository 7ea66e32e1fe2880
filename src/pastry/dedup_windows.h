// Receiver-side duplicate suppression for PastryNode's reliable channel.
//
// Every ReliableEnvelope carries its sender's sequence number `seq` and a
// `floor`: the sender's oldest still-unacked seq to the same receiver when
// the envelope was first sent, or `seq` itself if there was none.  Each seq
// below the floor that the sender addressed to this receiver was therefore
// either acked (a copy arrived here) or abandoned after the sender's last
// retransmission.  So instead of every seq it has processed, the receiver
// keeps one window per sender: a floor below which every seq counts as
// seen, and the seqs processed above it.  Retransmits, transport duplicates
// and late copies of abandoned sends below the floor are all dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/format.h"
#include "common/u128.h"

namespace vb::pastry {

class DedupWindows {
 public:
  /// Records one arriving copy of `sender`'s envelope `seq` whose floor is
  /// `floor` (floor <= seq).  Returns true if the copy is new and must be
  /// processed, false if it is a duplicate or lies below the sender's floor.
  bool accept(const U128& sender, std::uint64_t seq, std::uint64_t floor);

  /// Senders with a window (state-size gauge).
  std::size_t senders() const { return windows_.size(); }
  /// Seqs listed above their window's floor, summed over senders
  /// (state-size gauge).
  std::size_t entries() const;

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  void ckpt_save(ckpt::Writer& w) const;
  /// Refuses windows out of sender order, and listed seqs at or below
  /// their floor or out of order.
  void ckpt_restore(ckpt::Reader& r);

 private:
  struct Window {
    U128 sender;
    std::uint64_t floor = 0;  // every seq below it counts as seen
    std::vector<std::uint64_t> above;  // processed seqs > floor, ascending
  };

  std::vector<Window> windows_;  // strictly ascending by sender
};

}  // namespace vb::pastry
