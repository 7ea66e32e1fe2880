#include "scribe/scribe_network.h"

#include <stdexcept>

namespace vb::scribe {

ScribeNetwork::ScribeNetwork(pastry::PastryNetwork* net) : net_(net) {
  if (net == nullptr) throw std::invalid_argument("ScribeNetwork: null net");
  for (pastry::PastryNode* n : net_->nodes()) attach(*n);
}

ScribeNode& ScribeNetwork::attach(pastry::PastryNode& node) {
  auto [it, inserted] =
      scribes_.emplace(node.id(), std::make_unique<ScribeNode>(&node));
  if (!inserted) throw std::invalid_argument("ScribeNetwork: already attached");
  return *it->second;
}

ScribeNode& ScribeNetwork::at(const U128& id) {
  ScribeNode* n = find(id);
  if (n == nullptr) {
    throw std::out_of_range("ScribeNetwork: no node " + id.short_hex());
  }
  return *n;
}

ScribeNode* ScribeNetwork::find(const U128& id) {
  auto it = scribes_.find(id);
  if (it == scribes_.end() || !it->second->owner().alive()) return nullptr;
  return it->second.get();
}

std::vector<ScribeNode*> ScribeNetwork::nodes() {
  std::vector<ScribeNode*> out;
  for (auto& [id, s] : scribes_) {
    if (s->owner().alive()) out.push_back(s.get());
  }
  return out;
}

std::vector<ScribeNode*> ScribeNetwork::members_of(const GroupId& group) {
  std::vector<ScribeNode*> out;
  for (ScribeNode* s : nodes()) {
    if (s->is_member(group)) out.push_back(s);
  }
  return out;
}

ScribeNode* ScribeNetwork::root_of(const GroupId& group) {
  for (ScribeNode* s : nodes()) {
    const GroupState* st = s->find_group(group);
    if (st != nullptr && st->root) return s;
  }
  return nullptr;
}

bool ScribeNetwork::tree_consistent(const GroupId& group) {
  ScribeNode* root = nullptr;
  for (ScribeNode* s : nodes()) {
    const GroupState* st = s->find_group(group);
    if (st == nullptr) continue;
    if (st->root) {
      if (root != nullptr) return false;  // two roots
      root = s;
    }
  }
  if (root == nullptr) return false;

  for (ScribeNode* s : nodes()) {
    const GroupState* st = s->find_group(group);
    if (st == nullptr || !st->in_tree()) continue;
    if (st->root) continue;
    if (!st->attached || !st->parent.valid()) return false;
    ScribeNode* parent = find(st->parent.id);
    if (parent == nullptr) return false;
    const GroupState* pst = parent->find_group(group);
    if (pst == nullptr || !pst->has_child(s->owner().handle())) return false;

    // Walk to the root, bounded to catch cycles.
    const ScribeNode* cur = s;
    for (int hops = 0; hops < 1024; ++hops) {
      const GroupState* cst = cur->find_group(group);
      if (cst == nullptr) return false;
      if (cst->root) break;
      if (!cst->attached || !cst->parent.valid()) return false;
      const ScribeNode* up = find(cst->parent.id);
      if (up == nullptr) return false;
      cur = up;
      if (hops == 1023) return false;  // cycle
    }
  }
  return true;
}

int ScribeNetwork::tree_height(const GroupId& group) {
  if (root_of(group) == nullptr) return -1;
  int height = 0;
  for (ScribeNode* s : members_of(group)) {
    int depth = 0;
    const ScribeNode* cur = s;
    for (int hops = 0; hops < 1024; ++hops) {
      const GroupState* st = cur->find_group(group);
      if (st == nullptr) { depth = -1; break; }
      if (st->root) break;
      if (!st->attached || !st->parent.valid()) { depth = -1; break; }
      const ScribeNode* up = find(st->parent.id);
      if (up == nullptr) { depth = -1; break; }
      cur = up;
      ++depth;
    }
    height = std::max(height, depth);
  }
  return height;
}

}  // namespace vb::scribe
