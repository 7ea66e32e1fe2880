// Pastry node identity.
//
// A Pastry node is identified by a 128-bit id on a circular id space and
// lives on a physical host; the pair travels together as a NodeHandle (id +
// location), mirroring Pastry's practice of storing "IP address, latency
// information, and Pastry ID" in routing state (§II.A.1 of the paper).
#pragma once

#include <functional>
#include <string>

#include "common/u128.h"
#include "net/topology.h"

namespace vb::pastry {

/// Number of base-2^b digits in an id (b = 4 -> 32 hex digits).
inline constexpr int kIdDigits = 32;
/// Digit alphabet size (2^b with b = 4).
inline constexpr int kIdBase = 16;

/// Reference to a node: its ring id plus its physical host (the proximity
/// metric and message latency are functions of the host).
struct NodeHandle {
  U128 id;
  net::HostId host = -1;

  friend bool operator==(const NodeHandle& a, const NodeHandle& b) {
    return a.id == b.id;
  }
  friend bool operator!=(const NodeHandle& a, const NodeHandle& b) {
    return !(a == b);
  }

  bool valid() const { return host >= 0; }
  std::string to_string() const;

  /// Checkpoint layout (src/ckpt): id, then host.
  template <class IO>
  void ckpt_io(IO& io) {
    io.u128(id);
    io.i64(host);
  }
};

/// Invalid/absent handle.
inline const NodeHandle kNoHandle{};

}  // namespace vb::pastry

template <>
struct std::hash<vb::pastry::NodeHandle> {
  std::size_t operator()(const vb::pastry::NodeHandle& h) const noexcept {
    return static_cast<std::size_t>(h.id.lo() ^ (h.id.hi() * 0x9E3779B97F4A7C15ULL));
  }
};
