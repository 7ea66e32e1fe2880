// Pastry routing table: rows by common-prefix length, columns by next digit.
//
// Row r holds nodes whose ids share exactly r leading digits with the local
// id; column c within row r holds a node whose (r+1)-th digit is c.  When two
// candidates fit one cell, Pastry keeps the one closer under the proximity
// metric — this locality choice is what later gives Scribe anycast its
// "reaches a member near the sender" property (§III.A.2).
//
// Only about ceil(log16 N) of the 32 rows ever hold an entry, so rows are
// allocated on demand: the table grows to the deepest row ever populated and
// an empty cell is a RouteEntry whose handle is invalid (host < 0).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "ckpt/format.h"
#include "pastry/node_id.h"

namespace vb::pastry {

/// One routing-table cell: the remembered peer and its proximity to us.
struct RouteEntry {
  NodeHandle node;
  int proximity = 0;  // net::Proximity as int; smaller is closer
};

class RoutingTable {
 public:
  /// `owner` is the local node id; entries are indexed relative to it.
  explicit RoutingTable(const U128& owner) : owner_(owner) {}

  /// Considers `candidate` for the table.  Replaces an existing entry if the
  /// candidate is strictly closer by proximity, or equally close with a
  /// numerically smaller id — a total order, so each cell converges to the
  /// unique minimum over all candidates offered regardless of order (the
  /// bulk-join synthesizer depends on this).  Self, invalid handles and
  /// exact duplicates are ignored.  Returns true if the table changed.
  bool consider(const NodeHandle& candidate, int proximity);

  /// Removes a (presumed failed) node wherever it appears.
  /// Returns true if found.
  bool remove(const NodeHandle& node);

  /// Entry for routing a message whose key shares `row` digits with the
  /// owner and whose next digit is `col`; nullopt if the cell is empty.
  std::optional<NodeHandle> lookup(int row, int col) const;

  /// Allocation-free variant of lookup for the per-hop fast path: a pointer
  /// into the table, or nullptr if the cell is empty or out of range.  Valid
  /// only until the next mutation: consider() may reallocate the rows.
  const NodeHandle* lookup_ptr(int row, int col) const {
    const RouteEntry* e = entry_ptr(row, col);
    return e != nullptr ? &e->node : nullptr;
  }

  /// Full cell contents including the remembered proximity, or nullptr if
  /// empty/out of range (equivalence property tests compare synthesized vs
  /// converged tables entry-for-entry, proximity included).  Same validity
  /// as lookup_ptr.
  const RouteEntry* entry_ptr(int row, int col) const {
    if (row < 0 || row >= static_cast<int>(rows_.size()) || col < 0 ||
        col >= kIdBase) {
      return nullptr;
    }
    const RouteEntry& e = rows_[static_cast<std::size_t>(row)]
                               [static_cast<std::size_t>(col)];
    return e.node.valid() ? &e : nullptr;
  }

  /// Visits every populated entry in row-major order without materializing
  /// a vector (rule-3 fallback scans and departure announcements run
  /// through here).  `fn` must not mutate the table.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Row& row : rows_) {
      for (const RouteEntry& e : row) {
        if (e.node.valid()) fn(e.node);
      }
    }
  }

  /// All distinct nodes currently in the table.
  std::vector<NodeHandle> all_entries() const;

  /// Entries of one row (used by the join protocol: nodes along the join
  /// path ship row prefixes to the newcomer).
  std::vector<NodeHandle> row_entries(int row) const;

  /// Number of populated cells.
  std::size_t size() const { return populated_; }

  const U128& owner() const { return owner_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Writes the populated count, then (id, host, proximity) per entry in
  /// row-major order: 4 + 32 * size() bytes.
  void ckpt_save(ckpt::Writer& w) const { ckpt::save(w, *this); }
  /// Rebuilds the table, placing each entry in the cell its id selects.
  /// Refuses a count above 512, an entry equal to the owner or with an
  /// invalid host, and two entries in one cell.
  void ckpt_restore(ckpt::Reader& r) { ckpt_io(r); }
  /// The one layout behind ckpt_save and ckpt_restore.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  using Row = std::array<RouteEntry, kIdBase>;

  /// The cell `id` belongs in, growing the rows down to its row.
  RouteEntry& cell_for(const U128& id);

  U128 owner_;
  std::vector<Row> rows_;
  std::size_t populated_ = 0;
};

}  // namespace vb::pastry
