#include "pastry/routing_table.h"

#include <limits>
#include <string>

namespace vb::pastry {

RouteEntry& RoutingTable::cell_for(const U128& id) {
  // id == owner_ (row kIdDigits) is excluded by every caller.
  int row = shared_prefix_digits(owner_, id);
  auto need = static_cast<std::size_t>(row) + 1;
  if (rows_.size() < need) {
    rows_.reserve(need);  // exact: the default growth would double the rows
    rows_.resize(need);
  }
  return rows_[need - 1][static_cast<std::size_t>(id.digit(row))];
}

bool RoutingTable::consider(const NodeHandle& candidate, int proximity) {
  if (candidate.id == owner_ || !candidate.valid()) return false;
  RouteEntry& cell = cell_for(candidate.id);
  if (!cell.node.valid()) {
    cell = RouteEntry{candidate, proximity};
    ++populated_;
    return true;
  }
  if (cell.node == candidate) {
    if (proximity < cell.proximity) {
      cell.proximity = proximity;
      return true;
    }
    return false;
  }
  // Total order on candidates: proximity first, numeric id as the
  // tie-break.  Each cell therefore converges to the unique minimum over
  // every candidate ever offered, independent of arrival order — the
  // bulk-join synthesizer (bulk_bootstrap.cc) relies on this to produce
  // state bit-identical to any sequence of learn() calls with the same
  // candidate coverage.
  if (proximity < cell.proximity ||
      (proximity == cell.proximity && candidate.id < cell.node.id)) {
    cell = RouteEntry{candidate, proximity};
    return true;
  }
  return false;
}

bool RoutingTable::remove(const NodeHandle& node) {
  if (node.id == owner_) return false;
  int row = shared_prefix_digits(owner_, node.id);
  if (row >= static_cast<int>(rows_.size())) return false;
  RouteEntry& cell = rows_[static_cast<std::size_t>(row)]
                          [static_cast<std::size_t>(node.id.digit(row))];
  if (cell.node.valid() && cell.node == node) {
    cell = RouteEntry{};
    --populated_;
    return true;
  }
  return false;
}

std::optional<NodeHandle> RoutingTable::lookup(int row, int col) const {
  const NodeHandle* n = lookup_ptr(row, col);
  if (n == nullptr) return std::nullopt;
  return *n;
}

std::vector<NodeHandle> RoutingTable::all_entries() const {
  std::vector<NodeHandle> out;
  out.reserve(populated_);
  for_each_entry([&out](const NodeHandle& n) { out.push_back(n); });
  return out;
}

std::vector<NodeHandle> RoutingTable::row_entries(int row) const {
  std::vector<NodeHandle> out;
  if (row < 0 || row >= static_cast<int>(rows_.size())) return out;
  for (const RouteEntry& e : rows_[static_cast<std::size_t>(row)]) {
    if (e.node.valid()) out.push_back(e.node);
  }
  return out;
}

template <class IO>
void RoutingTable::ckpt_io(IO& io) {
  constexpr std::uint32_t kCells = kIdDigits * kIdBase;
  auto n = static_cast<std::uint32_t>(populated_);
  io.u32(n);
  io.loading([&] {
    if (n > kCells) {
      throw ckpt::CkptError("routing table: " + std::to_string(n) +
                            " entries exceed the " + std::to_string(kCells) +
                            " cells");
    }
    rows_.clear();
    populated_ = 0;
  });
  auto entry = [&](RouteEntry& e) {
    std::int64_t host = e.node.host;
    io.u128(e.node.id);
    io.i64(host);
    io.i64(e.proximity);
    io.loading([&] {
      if (e.node.id == owner_) {
        throw ckpt::CkptError("routing table: entry is the owner itself");
      }
      if (host < 0 || host > std::numeric_limits<net::HostId>::max()) {
        throw ckpt::CkptError("routing table: entry with an invalid host " +
                              std::to_string(host));
      }
      e.node.host = static_cast<net::HostId>(host);
      RouteEntry& cell = cell_for(e.node.id);
      if (cell.node.valid()) {
        throw ckpt::CkptError("routing table: two entries in one cell");
      }
      cell = e;
      ++populated_;
    });
  };
  // Save walks the populated cells; restore places each entry it reads in
  // the cell its id selects.
  if constexpr (IO::kLoading) {
    for (std::uint32_t i = 0; i < n; ++i) {
      RouteEntry e;
      entry(e);
    }
  } else {
    for (Row& row : rows_) {
      for (RouteEntry& e : row) {
        if (e.node.valid()) entry(e);
      }
    }
  }
}

template void RoutingTable::ckpt_io(ckpt::Writer&);
template void RoutingTable::ckpt_io(ckpt::Reader&);

}  // namespace vb::pastry
