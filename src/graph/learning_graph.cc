// coursenav:deterministic — canonical numbering replays serial LIFO order.
#include "graph/learning_graph.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"

namespace coursenav {

namespace {

/// Heap bytes a node's bitsets spilled beyond the node itself.
size_t BitsetHeapBytes(const LearningNode& node) {
  return node.completed.MemoryUsage() + node.selection.MemoryUsage();
}

}  // namespace

void LearningGraph::ConfigureShards(int num_shards) {
  assert(num_shards >= 1 && num_shards <= kMaxShards);
  assert(shards_[0].nodes.empty() && "shards must be configured first");
  shards_.clear();
  shards_.resize(static_cast<size_t>(num_shards));
}

NodeId LearningGraph::AddRoot(Term term, DynamicBitset completed) {
  assert(shards_[0].nodes.empty());
  LearningNode node;
  node.term = term;
  node.completed = std::move(completed);
  shards_[0].memory_bytes += sizeof(LearningNode) + BitsetHeapBytes(node);
  shards_[0].nodes.push_back(std::move(node));
  return 0;
}

NodeId LearningGraph::AddChild(NodeId parent, DynamicBitset selection,
                               DynamicBitset completed, double edge_cost) {
  double path_cost = node(parent).path_cost + edge_cost;
  return AddChildWithPathCost(parent, std::move(selection),
                              std::move(completed), edge_cost, path_cost);
}

NodeId LearningGraph::AddChildWithPathCost(NodeId parent,
                                           DynamicBitset selection,
                                           DynamicBitset completed,
                                           double edge_cost,
                                           double path_cost) {
  return AddChildTo(/*shard=*/parent >> kShardShift, parent,
                    &node_mut(parent), std::move(selection),
                    std::move(completed), edge_cost, path_cost)
      .id;
}

LearningGraph::CreatedChild LearningGraph::AddChildTo(
    int shard_index, NodeId parent_id, LearningNode* parent,
    DynamicBitset selection, DynamicBitset completed, double edge_cost,
    double path_cost) {
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
  if (child_ranges_) {
    EdgeRange& siblings = parent->out_edges;
    if (siblings.empty()) {
      siblings.first_ = child_id;
    } else {
      CN_CHECK_EQ(siblings.first_ + siblings.count_, child_id)
          << "children of node " << parent_id
          << " must be added back to back; its range is already closed";
    }
    ++siblings.count_;
  }

  LearningNode child;
  child.term = parent->term.Next();
  child.parent = parent_id;
  child.completed = std::move(completed);
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
      if (id != 0) {
        CN_CHECK(valid_node(current.parent))
            << "node " << id << " parent " << current.parent
            << " does not decode to a live arena slot";
        const LearningNode& parent = node(current.parent);
        CN_CHECK(!child_ranges_ || parent.out_edges.contains(id))
            << "node " << id << " lies outside its parent's child range";
        CN_CHECK_EQ(current.selection.universe_size(), universe)
            << "node " << id << " selection universe mismatch";
        // Terms advance exactly one semester along every edge, which also
        // proves the parent links acyclic (they strictly decrease).
        CN_CHECK_EQ(current.term.index(), parent.term.index() + 1)
            << "edge into node " << id
            << " does not advance time by one semester (parent-link cycle?)";
        CN_CHECK((parent.completed | current.selection) == current.completed)
            << "node " << id
            << " completed set is not parent.completed ∪ selection";
      }
      CN_CHECK(child_ranges_ || current.out_edges.empty())
          << "node " << id << " of a parent-linked graph has a child range";
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

void LearningGraph::CheckAvailability(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const std::optional<DynamicBitset>& avoid) const {
  // A parent's children sit in runs (its child range, or one replay of a
  // parent-linked graph), so its options are derived once per run.
  NodeId parent_id = kInvalidNodeId;
  DynamicBitset options;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (size_t i = 0; i < shard.nodes.size(); ++i) {
      const LearningNode& child = shard.nodes[i];
      if (child.parent == kInvalidNodeId) continue;  // the root
      if (child.parent != parent_id) {
        parent_id = child.parent;
        const LearningNode& parent = node(parent_id);
        options = RecordedOptions(catalog, schedule, parent.term,
                                  parent.completed, avoid);
      }
      CN_CHECK(child.selection.IsSubsetOf(options))
          << "selection into node "
          << (static_cast<NodeId>(s) << kShardShift | static_cast<NodeId>(i))
          << " elects courses outside the parent's options";
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
  CN_CHECK_LE(num_nodes(), int64_t{kLocalMask} + 1)
      << "a canonical graph must fit one shard's id space";

  using Arena = ChunkedVector<LearningNode>;
  Shard canonical;
  // Nodes each source chunk still holds. A chunk whose last node has moved
  // becomes the canonical arena's next chunk, so the merge holds one graph
  // plus the chunks not yet drained, never two graphs.
  std::vector<std::vector<int32_t>> undrained(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    canonical.memory_bytes += shard.memory_bytes;
    canonical.allocation_failed |= shard.allocation_failed;
    for (size_t begin = 0; begin < shard.nodes.size();
         begin += Arena::kChunkSize) {
      undrained[s].push_back(static_cast<int32_t>(
          std::min(Arena::kChunkSize, shard.nodes.size() - begin)));
    }
  }

  // Moves node `old_id` to the next canonical id under canonical parent
  // `parent` and returns its old child range, the only part of it the
  // replay still needs: a moved node is never read again.
  auto move_node = [&](NodeId old_id, NodeId parent) {
    const size_t s = static_cast<size_t>(old_id >> kShardShift);
    const size_t local = static_cast<size_t>(old_id & kLocalMask);
    LearningNode& node = shards_[s].nodes[local];
    const EdgeRange old_children = node.out_edges;
    node.parent = parent;
    canonical.nodes.push_back(std::move(node));
    const size_t chunk = local >> Arena::kChunkBits;
    if (--undrained[s][chunk] == 0) {
      canonical.nodes.AdoptChunk(shards_[s].nodes.ReleaseChunk(chunk));
    }
    return old_children;
  };

  // Replay the serial generators' numbering: ids are assigned when a node
  // is created, all children of one expansion get consecutive ids in
  // out-edge order, and the worklist is LIFO — the next node expanded is
  // the most recently created child. An entry is a moved node's canonical
  // id and its old child range.
  struct Moved {
    NodeId id;
    EdgeRange old_children;
  };
  std::vector<Moved> worklist;
  worklist.push_back({0, move_node(0, kInvalidNodeId)});
  while (!worklist.empty()) {
    const Moved current = worklist.back();
    worklist.pop_back();
    if (current.old_children.empty()) continue;
    canonical.nodes[static_cast<size_t>(current.id)].out_edges.first_ =
        static_cast<EdgeId>(canonical.nodes.size());
    for (NodeId old_child : current.old_children) {
      const NodeId id = static_cast<NodeId>(canonical.nodes.size());
      worklist.push_back({id, move_node(old_child, current.id)});
    }
  }
  canonical.nodes.FreeUnusedChunks();

  std::vector<Shard> merged;
  merged.push_back(std::move(canonical));
  shards_ = std::move(merged);
  // The merge rebuilt every id: prove the renumbered graph well-formed
  // before anyone reads it (dcheck builds only; the sweep is O(n)).
  if (CN_DCHECK_IS_ON()) CheckInvariants();
}

}  // namespace coursenav
