// Convenience container: one ScribeNode per Pastry node, plus whole-tree
// inspection helpers used by tests and benches (membership queries, tree
// consistency checks, root lookup).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "pastry/pastry_network.h"
#include "scribe/scribe_node.h"

namespace vb::scribe {

class ScribeNetwork {
 public:
  /// Attaches a ScribeNode to every node currently in `net`.
  /// `net` must outlive this object.
  explicit ScribeNetwork(pastry::PastryNetwork* net);

  /// Attaches a ScribeNode to a later-added Pastry node.
  ScribeNode& attach(pastry::PastryNode& node);

  ScribeNode& at(const U128& id);
  ScribeNode* find(const U128& id);
  std::vector<ScribeNode*> nodes();

  pastry::PastryNetwork& pastry() { return *net_; }

  // --- whole-tree inspection (test/bench support) ------------------------

  /// All live nodes currently subscribed to `group`.
  std::vector<ScribeNode*> members_of(const GroupId& group);

  /// The node that believes it is the root, or nullptr.
  ScribeNode* root_of(const GroupId& group);

  /// Structural invariants of the group tree:
  ///  * exactly one root,
  ///  * every attached non-root node's parent lists it as a child,
  ///  * every member reaches the root through parent edges (acyclic).
  /// Returns true when all hold.
  bool tree_consistent(const GroupId& group);

  /// Tree height: longest member-to-root path (root alone = 0); -1 if no root.
  int tree_height(const GroupId& group);

 private:
  pastry::PastryNetwork* net_;
  std::map<U128, std::unique_ptr<ScribeNode>> scribes_;
};

}  // namespace vb::scribe
