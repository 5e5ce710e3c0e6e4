// coursenav:deterministic — canonical numbering replays serial LIFO order.
#include "graph/learning_graph.h"

#include <cassert>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"

namespace coursenav {

namespace {

size_t NodeFootprint(const LearningNode& node) {
  return sizeof(LearningNode) + node.completed.MemoryUsage() +
         node.options.MemoryUsage() +
         node.out_edges.capacity() * sizeof(EdgeId);
}

size_t EdgeFootprint(const LearningEdge& edge) {
  return sizeof(LearningEdge) + edge.selection.MemoryUsage();
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
  shards_[0].memory_bytes += NodeFootprint(node);
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
                    &node_mut(parent), selection, std::move(completed),
                    std::move(options), edge_cost, path_cost)
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
  EdgeId edge_id = static_cast<EdgeId>(shard_index) << kShardShift |
                   static_cast<EdgeId>(shard.edges.size());

  LearningEdge edge;
  edge.from = parent_id;
  edge.to = child_id;
  edge.selection = std::move(selection);
  edge.cost = edge_cost;
  shard.memory_bytes += EdgeFootprint(edge);
  shard.edges.push_back(std::move(edge));

  LearningNode child;
  child.term = parent->term.Next();
  child.completed = std::move(completed);
  child.options = std::move(options);
  child.parent_edge = edge_id;
  child.path_cost = path_cost;
  shard.memory_bytes += NodeFootprint(child);
  LearningNode& stored = shard.nodes.push_back(std::move(child));

  parent->out_edges.push_back(edge_id);
  return CreatedChild{child_id, &stored};
}

size_t LearningGraph::AllocatedBytes() const {
  size_t total = shards_.capacity() * sizeof(Shard);
  for (const Shard& shard : shards_) {
    total += shard.nodes.AllocatedBytes() + shard.edges.AllocatedBytes();
    for (size_t i = 0; i < shard.nodes.size(); ++i) {
      const LearningNode& node = shard.nodes[i];
      total += node.completed.MemoryUsage() + node.options.MemoryUsage() +
               node.out_edges.capacity() * sizeof(EdgeId);
    }
    for (size_t i = 0; i < shard.edges.size(); ++i) {
      total += shard.edges[i].selection.MemoryUsage();
    }
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
  const int64_t total_nodes = num_nodes();
  if (total_nodes == 0) {
    CN_CHECK_EQ(num_edges(), 0) << "edges exist in an empty graph";
    return;
  }
  CN_CHECK(!shards_[0].nodes.empty())
      << "graph has nodes but shard 0 holds no root";
  const LearningNode& root_node = node(0);
  CN_CHECK_EQ(root_node.parent_edge, kInvalidEdgeId)
      << "the root must not have a parent edge";
  // Node+edge are materialized pairwise by AddChildTo, so edges biject
  // with non-root nodes even in a budget-truncated run.
  CN_CHECK_EQ(num_edges(), total_nodes - 1);
  const int universe = root_node.completed.universe_size();

  auto valid_node = [&](NodeId id) {
    if (id < 0) return false;
    const size_t shard = static_cast<size_t>(id >> kShardShift);
    const size_t local = static_cast<size_t>(id & kLocalMask);
    return shard < shards_.size() && local < shards_[shard].nodes.size();
  };
  auto valid_edge = [&](EdgeId id) {
    if (id < 0) return false;
    const size_t shard = static_cast<size_t>(id >> kShardShift);
    const size_t local = static_cast<size_t>(id & kLocalMask);
    return shard < shards_.size() && local < shards_[shard].edges.size();
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
        CN_CHECK(valid_edge(current.parent_edge))
            << "node " << id << " parent edge " << current.parent_edge
            << " does not decode to a live arena slot";
        const LearningEdge& inbound = edge(current.parent_edge);
        CN_CHECK_EQ(inbound.to, id)
            << "parent edge of node " << id << " targets another node";
        CN_CHECK(valid_node(inbound.from))
            << "parent edge of node " << id << " has an invalid source";
        const LearningNode& parent = node(inbound.from);
        // Terms advance exactly one semester along every edge, which also
        // proves the parent links acyclic (they strictly decrease).
        CN_CHECK_EQ(current.term.index(), parent.term.index() + 1)
            << "edge " << current.parent_edge
            << " does not advance time by one semester (parent-link cycle?)";
        CN_CHECK(inbound.selection.IsSubsetOf(parent.options))
            << "selection of edge " << current.parent_edge
            << " elects courses outside the parent's options";
        CN_CHECK((parent.completed | inbound.selection) == current.completed)
            << "node " << id
            << " completed set is not parent.completed ∪ selection";
      }
      for (EdgeId out : current.out_edges) {
        CN_CHECK(valid_edge(out))
            << "out edge " << out << " of node " << id
            << " does not decode to a live arena slot";
        CN_CHECK_EQ(edge(out).from, id)
            << "out edge " << out << " does not originate at node " << id;
        CN_CHECK(valid_node(edge(out).to));
        CN_CHECK_EQ(node(edge(out).to).parent_edge, out)
            << "edge " << out << " is not the parent edge of its target";
      }
    }
  }

  if (shards_.size() == 1) {
    // Canonical (serial-order) numbering: contiguous ids with every parent
    // numbered before each of its children.
    for (size_t i = 0; i < shards_[0].edges.size(); ++i) {
      const LearningEdge& current = shards_[0].edges[i];
      CN_CHECK_LT(current.from, current.to)
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

    // Copy the out-edge list: appending children below mutates the arena
    // the old node lives in only via distinct elements, but keep the loop
    // simple and allocation-light.
    const std::vector<EdgeId>& out_edges = node_mut(old_id).out_edges;
    for (EdgeId old_edge_id : out_edges) {
      LearningEdge& old_edge = edge_mut(old_edge_id);
      LearningNode& old_child = node_mut(old_edge.to);
      NodeId new_child = out.AddChildWithPathCost(
          new_id, std::move(old_edge.selection), std::move(old_child.completed),
          std::move(old_child.options), old_edge.cost, old_child.path_cost);
      if (old_child.is_goal) out.MarkGoal(new_child);
      worklist.push_back(old_edge.to);
      remap_stack.push_back(new_child);
    }
  }

  *this = std::move(out);
  // The merge rebuilt every id: prove the renumbered graph well-formed
  // before anyone reads it (dcheck builds only; the sweep is O(n)).
  if (CN_DCHECK_IS_ON()) CheckInvariants();
}

}  // namespace coursenav
