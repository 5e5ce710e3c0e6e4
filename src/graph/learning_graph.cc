// coursenav:deterministic — canonical numbering replays serial LIFO order.
#include "graph/learning_graph.h"

#include <cassert>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"

namespace coursenav {

namespace {

/// Heap bytes a node's bitsets spilled beyond the node itself.
size_t BitsetHeapBytes(const LearningNode& node) {
  return node.completed.MemoryUsage() + node.options.MemoryUsage() +
         node.selection.MemoryUsage();
}

}  // namespace

void LearningGraph::ConfigureShards(int num_shards) {
  assert(num_shards >= 1 && num_shards <= kMaxShards);
  assert(shards_[0].nodes.empty() && "shards must be configured first");
  shards_.clear();
  shards_.resize(static_cast<size_t>(num_shards));
}

NodeId LearningGraph::AddRoot(Term term, DynamicBitset completed,
                              DynamicBitset options) {
  assert(shards_[0].nodes.empty());
  LearningNode node;
  node.term = term;
  node.completed = std::move(completed);
  node.options = std::move(options);
  shards_[0].memory_bytes += sizeof(LearningNode) + BitsetHeapBytes(node);
  shards_[0].nodes.push_back(std::move(node));
  return 0;
}

NodeId LearningGraph::AddChild(NodeId parent, DynamicBitset selection,
                               DynamicBitset completed, DynamicBitset options,
                               double edge_cost) {
  double path_cost = node(parent).path_cost + edge_cost;
  return AddChildWithPathCost(parent, std::move(selection),
                              std::move(completed), std::move(options),
                              edge_cost, path_cost);
}

NodeId LearningGraph::AddChildWithPathCost(NodeId parent,
                                           DynamicBitset selection,
                                           DynamicBitset completed,
                                           DynamicBitset options,
                                           double edge_cost,
                                           double path_cost) {
  return AddChildTo(/*shard=*/parent >> kShardShift, parent,
                    &node_mut(parent), std::move(selection),
                    std::move(completed), std::move(options), edge_cost,
                    path_cost)
      .id;
}

LearningGraph::CreatedChild LearningGraph::AddChildTo(
    int shard_index, NodeId parent_id, LearningNode* parent,
    DynamicBitset selection, DynamicBitset completed, DynamicBitset options,
    double edge_cost, double path_cost) {
  Shard& shard = shards_[static_cast<size_t>(shard_index)];
  if (FaultInjector* injector = ActiveFaultInjector();
      injector != nullptr && injector->ShouldInject(kFaultSiteGraphAlloc)) {
    shard.allocation_failed = true;
  }
  if (static_cast<int32_t>(shard.nodes.size()) >= kShardSoftCapacity) {
    // Id space of this shard is nearly exhausted; surface as an allocation
    // failure so the next budget check stops the run cleanly.
    shard.allocation_failed = true;
  }

  NodeId child_id = static_cast<NodeId>(shard_index) << kShardShift |
                    static_cast<NodeId>(shard.nodes.size());
  EdgeRange& siblings = parent->out_edges;
  if (siblings.empty()) {
    siblings.first_ = child_id;
  } else {
    CN_CHECK_EQ(siblings.first_ + siblings.count_, child_id)
        << "children of node " << parent_id
        << " must be added back to back; its range is already closed";
  }
  ++siblings.count_;

  LearningNode child;
  child.term = parent->term.Next();
  child.parent = parent_id;
  child.completed = std::move(completed);
  child.options = std::move(options);
  child.selection = std::move(selection);
  child.edge_cost = edge_cost;
  child.path_cost = path_cost;
  shard.memory_bytes += sizeof(LearningNode) + BitsetHeapBytes(child);
  LearningNode& stored = shard.nodes.push_back(std::move(child));
  return CreatedChild{child_id, &stored};
}

size_t LearningGraph::AllocatedBytes() const {
  size_t total = shards_.capacity() * sizeof(Shard);
  for (const Shard& shard : shards_) {
    // memory_bytes charged each node its size plus its spilled bitset
    // words (which never change once stored); swap the sizes for the
    // chunks actually held.
    total += shard.nodes.AllocatedBytes() + shard.memory_bytes -
             shard.nodes.size() * sizeof(LearningNode);
  }
  return total;
}

std::vector<NodeId> LearningGraph::GoalNodes() const {
  std::vector<NodeId> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (size_t i = 0; i < shard.nodes.size(); ++i) {
      if (shard.nodes[i].is_goal) {
        out.push_back(static_cast<NodeId>(s) << kShardShift |
                      static_cast<NodeId>(i));
      }
    }
  }
  return out;
}

std::vector<NodeId> LearningGraph::LeafNodes() const {
  std::vector<NodeId> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (size_t i = 0; i < shard.nodes.size(); ++i) {
      if (shard.nodes[i].out_edges.empty()) {
        out.push_back(static_cast<NodeId>(s) << kShardShift |
                      static_cast<NodeId>(i));
      }
    }
  }
  return out;
}

void LearningGraph::CheckInvariants() const {
  CN_CHECK_GE(num_shards(), 1);
  CN_CHECK_LE(num_shards(), kMaxShards);
  if (num_nodes() == 0) return;
  CN_CHECK(!shards_[0].nodes.empty())
      << "graph has nodes but shard 0 holds no root";
  const LearningNode& root_node = node(0);
  CN_CHECK_EQ(root_node.parent, kInvalidNodeId)
      << "the root must not have a parent";
  const int universe = root_node.completed.universe_size();

  auto valid_node = [&](NodeId id) {
    if (id < 0) return false;
    const size_t shard = static_cast<size_t>(id >> kShardShift);
    const size_t local = static_cast<size_t>(id & kLocalMask);
    return shard < shards_.size() && local < shards_[shard].nodes.size();
  };

  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    CN_CHECK_LE(static_cast<int64_t>(shard.nodes.size()),
                int64_t{kLocalMask} + 1)
        << "shard " << s << " overflows the local-id encoding";
    for (size_t i = 0; i < shard.nodes.size(); ++i) {
      const NodeId id = static_cast<NodeId>(s) << kShardShift |
                        static_cast<NodeId>(i);
      const LearningNode& current = shard.nodes[i];
      CN_CHECK_EQ(current.completed.universe_size(), universe)
          << "node " << id << " completed-set universe mismatch";
      CN_CHECK_EQ(current.options.universe_size(), universe)
          << "node " << id << " option-set universe mismatch";
      if (id != 0) {
        CN_CHECK(valid_node(current.parent))
            << "node " << id << " parent " << current.parent
            << " does not decode to a live arena slot";
        const LearningNode& parent = node(current.parent);
        CN_CHECK(parent.out_edges.contains(id))
            << "node " << id << " lies outside its parent's child range";
        CN_CHECK_EQ(current.selection.universe_size(), universe)
            << "node " << id << " selection universe mismatch";
        // Terms advance exactly one semester along every edge, which also
        // proves the parent links acyclic (they strictly decrease).
        CN_CHECK_EQ(current.term.index(), parent.term.index() + 1)
            << "edge into node " << id
            << " does not advance time by one semester (parent-link cycle?)";
        CN_CHECK(current.selection.IsSubsetOf(parent.options))
            << "selection into node " << id
            << " elects courses outside the parent's options";
        CN_CHECK((parent.completed | current.selection) == current.completed)
            << "node " << id
            << " completed set is not parent.completed ∪ selection";
      }
      for (NodeId child : current.out_edges) {
        CN_CHECK(valid_node(child))
            << "child " << child << " of node " << id
            << " does not decode to a live arena slot";
        CN_CHECK_EQ(node(child).parent, id)
            << "child range of node " << id << " lists node " << child
            << ", a child of another node";
      }
    }
  }

  if (shards_.size() == 1) {
    // Canonical (serial-order) numbering: contiguous ids with every parent
    // numbered before each of its children.
    for (size_t i = 1; i < shards_[0].nodes.size(); ++i) {
      CN_CHECK_LT(shards_[0].nodes[i].parent, static_cast<NodeId>(i))
          << "canonical numbering must order parents before children";
    }
  }
}

void LearningGraph::Canonicalize() {
  if (shards_.size() == 1) {
    // Serial runs are canonical already; still self-check in dcheck builds.
    if (CN_DCHECK_IS_ON()) CheckInvariants();
    return;
  }
  if (root() == kInvalidNodeId) {
    shards_.clear();
    shards_.resize(1);
    return;
  }

  LearningGraph out;

  // Replay the serial generators' numbering: ids are assigned when a node
  // is created, all children of one expansion get consecutive ids in
  // out-edge order, and the worklist is LIFO — the next node expanded is
  // the most recently created child.
  std::vector<NodeId> worklist;
  std::vector<NodeId> remap_stack;  // new ids, parallel to `worklist`
  // The replay touches every node exactly once; sizing the stacks up front
  // keeps the merge allocation-free apart from the rebuilt arenas.
  worklist.reserve(static_cast<size_t>(num_nodes()));
  remap_stack.reserve(static_cast<size_t>(num_nodes()));

  {
    LearningNode& old_root = node_mut(0);
    NodeId new_root = out.AddRoot(old_root.term, std::move(old_root.completed),
                                  std::move(old_root.options));
    if (old_root.is_goal) out.MarkGoal(new_root);
    worklist.push_back(0);
    remap_stack.push_back(new_root);
  }

  while (!worklist.empty()) {
    NodeId old_id = worklist.back();
    worklist.pop_back();
    NodeId new_id = remap_stack.back();
    remap_stack.pop_back();

    for (NodeId old_child_id : node(old_id).out_edges) {
      LearningNode& old_child = node_mut(old_child_id);
      NodeId new_child = out.AddChildWithPathCost(
          new_id, std::move(old_child.selection),
          std::move(old_child.completed), std::move(old_child.options),
          old_child.edge_cost, old_child.path_cost);
      if (old_child.is_goal) out.MarkGoal(new_child);
      worklist.push_back(old_child_id);
      remap_stack.push_back(new_child);
    }
  }

  *this = std::move(out);
  // The merge rebuilt every id: prove the renumbered graph well-formed
  // before anyone reads it (dcheck builds only; the sweep is O(n)).
  if (CN_DCHECK_IS_ON()) CheckInvariants();
}

}  // namespace coursenav
