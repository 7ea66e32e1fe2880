#include "pastry/routing_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vb::pastry {
namespace {

const U128 kOwner = U128::from_hex("a0000000000000000000000000000000");

NodeHandle h(const std::string& hex, int host = 0) {
  return NodeHandle{U128::from_hex(hex), host};
}

TEST(RoutingTable, IgnoresSelf) {
  RoutingTable rt(kOwner);
  EXPECT_FALSE(rt.consider(NodeHandle{kOwner, 1}, 0));
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTable, IgnoresInvalidHandle) {
  // An invalid handle is what marks an empty cell, so it must never be
  // stored: the table would count an entry it cannot return.
  RoutingTable rt(kOwner);
  EXPECT_FALSE(rt.consider(h("b0000000000000000000000000000000", -1), 0));
  EXPECT_EQ(rt.size(), 0u);
  EXPECT_EQ(rt.entry_ptr(0, 11), nullptr);
  EXPECT_TRUE(rt.all_entries().empty());
}

TEST(RoutingTable, PlacesByPrefixRowAndDigitColumn) {
  RoutingTable rt(kOwner);
  // Shares 0 digits, first digit 'b' -> row 0, col 11.
  NodeHandle n = h("b0000000000000000000000000000000");
  EXPECT_TRUE(rt.consider(n, 2));
  EXPECT_EQ(rt.lookup(0, 11).value(), n);
  EXPECT_FALSE(rt.lookup(0, 12).has_value());
  // Shares 1 digit ('a'), next digit '5' -> row 1, col 5.
  NodeHandle m = h("a5000000000000000000000000000000");
  EXPECT_TRUE(rt.consider(m, 1));
  EXPECT_EQ(rt.lookup(1, 5).value(), m);
}

TEST(RoutingTable, KeepsCloserCandidateOnConflict) {
  RoutingTable rt(kOwner);
  NodeHandle far = h("b0000000000000000000000000000001", 10);
  NodeHandle near = h("b0000000000000000000000000000002", 1);
  EXPECT_TRUE(rt.consider(far, 3));
  EXPECT_FALSE(rt.consider(near, 3));  // same proximity, larger id: no churn
  EXPECT_EQ(rt.lookup(0, 11).value(), far);
  EXPECT_TRUE(rt.consider(near, 1));  // strictly closer: replaces
  EXPECT_EQ(rt.lookup(0, 11).value(), near);
}

TEST(RoutingTable, EqualProximityTieBreaksToSmallerId) {
  // The (proximity, id) total order makes a cell's converged occupant
  // independent of consideration order — the bulk-join synthesizer and the
  // join-convergence property tests rely on this.
  RoutingTable rt(kOwner);
  NodeHandle bigger = h("b0000000000000000000000000000002", 1);
  NodeHandle smaller = h("b0000000000000000000000000000001", 10);
  EXPECT_TRUE(rt.consider(bigger, 3));
  EXPECT_TRUE(rt.consider(smaller, 3));  // equal proximity: smaller id wins
  EXPECT_EQ(rt.lookup(0, 11).value(), smaller);
  EXPECT_FALSE(rt.consider(bigger, 3));  // larger id can never reclaim it
  EXPECT_EQ(rt.entry_ptr(0, 11)->proximity, 3);
}

TEST(RoutingTable, UpdatesProximityOfExistingEntry) {
  RoutingTable rt(kOwner);
  NodeHandle n = h("b0000000000000000000000000000000");
  EXPECT_TRUE(rt.consider(n, 3));
  EXPECT_TRUE(rt.consider(n, 1));   // proximity improved
  EXPECT_FALSE(rt.consider(n, 2));  // not an improvement
  EXPECT_EQ(rt.size(), 1u);
}

TEST(RoutingTable, RemoveClearsCell) {
  RoutingTable rt(kOwner);
  NodeHandle n = h("b0000000000000000000000000000000");
  rt.consider(n, 1);
  EXPECT_TRUE(rt.remove(n));
  EXPECT_FALSE(rt.remove(n));
  EXPECT_FALSE(rt.lookup(0, 11).has_value());
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTable, RemoveOfDifferentNodeInSameCellIsNoop) {
  RoutingTable rt(kOwner);
  NodeHandle a = h("b0000000000000000000000000000001");
  NodeHandle b = h("b0000000000000000000000000000002");
  rt.consider(a, 1);
  EXPECT_FALSE(rt.remove(b));
  EXPECT_EQ(rt.size(), 1u);
}

TEST(RoutingTable, AllEntriesAndRows) {
  RoutingTable rt(kOwner);
  NodeHandle a = h("b0000000000000000000000000000000");
  NodeHandle b = h("c0000000000000000000000000000000");
  NodeHandle c = h("a5000000000000000000000000000000");
  rt.consider(a, 1);
  rt.consider(b, 1);
  rt.consider(c, 1);
  EXPECT_EQ(rt.all_entries().size(), 3u);
  EXPECT_EQ(rt.row_entries(0).size(), 2u);
  EXPECT_EQ(rt.row_entries(1).size(), 1u);
  EXPECT_TRUE(rt.row_entries(5).empty());
  EXPECT_TRUE(rt.row_entries(-1).empty());
  EXPECT_TRUE(rt.row_entries(32).empty());
}

TEST(RoutingTable, LookupOutOfRangeIsEmpty) {
  RoutingTable rt(kOwner);
  EXPECT_FALSE(rt.lookup(-1, 0).has_value());
  EXPECT_FALSE(rt.lookup(0, 16).has_value());
  EXPECT_FALSE(rt.lookup(32, 0).has_value());
}

// --- reference model ------------------------------------------------------

// The dense layout: all 32 x 16 cells, each an optional entry, with the
// same (proximity, id) replacement order.  The on-demand table must be
// indistinguishable from it through every public accessor.
class DenseModel {
 public:
  explicit DenseModel(const U128& owner) : owner_(owner) {}

  bool consider(const NodeHandle& c, int proximity) {
    if (c.id == owner_ || !c.valid()) return false;
    auto& cell = cell_of(c.id);
    if (!cell.has_value()) {
      cell = RouteEntry{c, proximity};
      return true;
    }
    if (cell->node == c) {
      if (proximity >= cell->proximity) return false;
      cell->proximity = proximity;
      return true;
    }
    if (proximity < cell->proximity ||
        (proximity == cell->proximity && c.id < cell->node.id)) {
      cell = RouteEntry{c, proximity};
      return true;
    }
    return false;
  }

  bool remove(const NodeHandle& n) {
    if (n.id == owner_) return false;
    auto& cell = cell_of(n.id);
    if (!cell.has_value() || cell->node != n) return false;
    cell.reset();
    return true;
  }

  const std::optional<RouteEntry>& at(int row, int col) const {
    return cells_[static_cast<std::size_t>(row * kIdBase + col)];
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& cell : cells_) n += cell.has_value() ? 1 : 0;
    return n;
  }

  std::vector<NodeHandle> row(int r) const {
    std::vector<NodeHandle> out;
    for (int c = 0; c < kIdBase; ++c) {
      if (at(r, c).has_value()) out.push_back(at(r, c)->node);
    }
    return out;
  }

  std::vector<NodeHandle> all() const {
    std::vector<NodeHandle> out;
    for (int r = 0; r < kIdDigits; ++r) {
      for (const NodeHandle& n : row(r)) out.push_back(n);
    }
    return out;
  }

 private:
  std::optional<RouteEntry>& cell_of(const U128& id) {
    int row = shared_prefix_digits(owner_, id);
    return cells_[static_cast<std::size_t>(row * kIdBase + id.digit(row))];
  }

  U128 owner_;
  std::array<std::optional<RouteEntry>, kIdDigits * kIdBase> cells_{};
};

bool same(const std::vector<NodeHandle>& a, const std::vector<NodeHandle>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].host != b[i].host) return false;
  }
  return true;
}

// First difference between the table and the model, or "" if none.
std::string mismatch(const RoutingTable& rt, const DenseModel& m) {
  for (int r = 0; r < kIdDigits; ++r) {
    for (int c = 0; c < kIdBase; ++c) {
      const RouteEntry* got = rt.entry_ptr(r, c);
      const auto& want = m.at(r, c);
      std::string cell = "cell (" + std::to_string(r) + "," +
                         std::to_string(c) + ")";
      if ((got != nullptr) != want.has_value()) return cell + " occupancy";
      if (got == nullptr) continue;
      if (got->node.id != want->node.id || got->node.host != want->node.host ||
          got->proximity != want->proximity) {
        return cell + " contents";
      }
      if (rt.lookup_ptr(r, c) != &got->node) return cell + " lookup_ptr";
    }
    if (!same(rt.row_entries(r), m.row(r))) {
      return "row_entries(" + std::to_string(r) + ")";
    }
  }
  if (rt.size() != m.size()) return "size()";
  if (!same(rt.all_entries(), m.all())) return "all_entries()";
  std::vector<NodeHandle> visited;
  rt.for_each_entry([&visited](const NodeHandle& n) { visited.push_back(n); });
  if (!same(visited, m.all())) return "for_each_entry()";
  return "";
}

std::vector<std::uint8_t> image_of(const RoutingTable& rt) {
  ckpt::Writer w;
  rt.ckpt_save(w);
  return w.finish();
}

// An id sharing exactly `shared` leading digits with `owner`.
U128 id_sharing(const U128& owner, int shared, Rng& rng) {
  U128 id = rng.next_u128();
  for (int d = 0; d < shared; ++d) id = id.with_digit(d, owner.digit(d));
  int off = static_cast<int>(rng.uniform_int(1, kIdBase - 1));
  return id.with_digit(shared, (owner.digit(shared) + off) % kIdBase);
}

TEST(RoutingTable, MatchesDenseModelUnderRandomOps) {
  const std::size_t kFrame = ckpt::Writer().finish().size();
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const U128 owner = rng.next_u128();
    // A fixed pool, a few ids per shared-prefix length, so every row up to
    // 31 is grown on demand and cells see repeated conflicts and removals.
    std::vector<NodeHandle> pool;
    for (int shared = 0; shared < kIdDigits; ++shared) {
      for (int k = 0; k < 5; ++k) {
        pool.push_back(NodeHandle{id_sharing(owner, shared, rng),
                                  static_cast<net::HostId>(pool.size())});
      }
    }
    RoutingTable rt(owner);
    DenseModel model(owner);
    int deepest = -1;  // deepest row an entry was stored in
    for (int step = 0; step < 1500; ++step) {
      NodeHandle n = pool[rng.index(pool.size())];
      int op = static_cast<int>(rng.next_below(10));
      if (op == 0) n.host = -1;   // an invalid handle is never stored
      if (op == 1) n.id = owner;  // nor is the owner itself
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      if (op < 7) {
        int prox = static_cast<int>(rng.next_below(4));
        bool stored = rt.consider(n, prox);
        ASSERT_EQ(stored, model.consider(n, prox));
        if (stored) {
          deepest = std::max(deepest, shared_prefix_digits(owner, n.id));
        }
      } else {
        ASSERT_EQ(rt.remove(n), model.remove(n));
      }
      ASSERT_EQ(mismatch(rt, model), "");

      std::vector<std::uint8_t> img = image_of(rt);
      ASSERT_EQ(img.size(), kFrame + 4 + 32 * rt.size());
      ckpt::Reader r(img);
      RoutingTable restored(owner);
      restored.ckpt_restore(r);
      ASSERT_TRUE(r.at_end());
      ASSERT_EQ(mismatch(restored, model), "");
      ASSERT_EQ(image_of(restored), img);
    }
    EXPECT_EQ(deepest, kIdDigits - 1);
  }
}

// --- malformed checkpoint data ---------------------------------------------

struct RawEntry {
  U128 id;
  std::int64_t host;
};

// Restores a hand-built routing-table image into a table owned by kOwner and
// returns the CkptError message ("" if restore accepted it).
std::string restore_error(std::uint32_t count,
                          const std::vector<RawEntry>& entries) {
  ckpt::Writer w;
  w.u32(count);
  for (const RawEntry& e : entries) {
    w.u128(e.id);
    w.i64(e.host);
    w.i64(1);  // proximity
  }
  std::vector<std::uint8_t> img = w.finish();
  ckpt::Reader r(img);
  RoutingTable rt(kOwner);
  try {
    rt.ckpt_restore(r);
  } catch (const ckpt::CkptError& e) {
    return e.what();
  }
  return "";
}

const U128 kCellA = U128::from_hex("b0000000000000000000000000000001");
const U128 kCellA2 = U128::from_hex("b0000000000000000000000000000002");

TEST(RoutingTableCkpt, AcceptsWellFormedImage) {
  const U128 row1 = U128::from_hex("a5000000000000000000000000000000");
  EXPECT_EQ(restore_error(2, {{kCellA, 3}, {row1, 4}}), "");
}

TEST(RoutingTableCkpt, RefusesCountAboveCells) {
  EXPECT_NE(restore_error(kIdDigits * kIdBase + 1, {}).find("exceed"),
            std::string::npos);
}

TEST(RoutingTableCkpt, RefusesOwnerEntry) {
  EXPECT_NE(restore_error(1, {{kOwner, 3}}).find("owner"), std::string::npos);
}

TEST(RoutingTableCkpt, RefusesInvalidHost) {
  // Negative, and too large for a HostId (it would wrap to host 5).
  for (std::int64_t host : {std::int64_t{-1}, (std::int64_t{1} << 32) + 5}) {
    EXPECT_NE(restore_error(1, {{kCellA, host}}).find("invalid host"),
              std::string::npos)
        << host;
  }
}

TEST(RoutingTableCkpt, RefusesTwoEntriesInOneCell) {
  EXPECT_NE(restore_error(2, {{kCellA, 3}, {kCellA2, 4}}).find("one cell"),
            std::string::npos);
}

}  // namespace
}  // namespace vb::pastry
