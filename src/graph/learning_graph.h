#ifndef COURSENAV_GRAPH_LEARNING_GRAPH_H_
#define COURSENAV_GRAPH_LEARNING_GRAPH_H_

#include <cstdint>
#include <vector>

#include "catalog/term.h"
#include "util/bitset.h"
#include "util/chunked_vector.h"

namespace coursenav {

using NodeId = int32_t;
using EdgeId = int32_t;

inline constexpr NodeId kInvalidNodeId = -1;
inline constexpr EdgeId kInvalidEdgeId = -1;

/// One enrollment status `n_i` (Section 2): the semester `s_i`, the courses
/// completed by then `X_i`, and the course options `Y_i` available in `s_i`.
/// Node payloads keep their bitsets inline (array-of-structures): the
/// chunked arenas' stable-pointer contract is what lets parallel workers
/// hold `LearningNode*` across shard growth, so the sets of *materialized*
/// nodes cannot be hoisted into per-field matrices without breaking every
/// such reference. The data-oriented hot path lives one level up instead —
/// generators stage each expansion's *candidate* children in a
/// structure-of-arrays `internal::CandidateBatch` (contiguous completed /
/// selection word matrices) and run the SIMD pruning kernels there, only
/// copying survivors into arena nodes.
struct LearningNode {
  Term term;
  DynamicBitset completed;  ///< X_i
  DynamicBitset options;    ///< Y_i
  EdgeId parent_edge = kInvalidEdgeId;
  std::vector<EdgeId> out_edges;
  /// Set when this node satisfies the exploration task's condition (for
  /// deadline-driven paths: `s_i == d`; for goal-driven: the goal holds).
  bool is_goal = false;
  /// Accumulated path cost from the root under the active ranking function
  /// (0 when no ranking is in effect).
  double path_cost = 0.0;
};

/// One transition `e(n_i, n_{i+1})`: the course selection `W_{i,i+1}`
/// elected in semester `s_i`.
struct LearningEdge {
  NodeId from = kInvalidNodeId;
  NodeId to = kInvalidNodeId;
  DynamicBitset selection;  ///< W_{i,i+1} ⊆ Y_i
  double cost = 0.0;        ///< edge cost under the active ranking function
};

/// The learning graph `G(E, V)` produced by the generators.
///
/// Generators expand statuses forward in time, so the materialized graph is
/// a rooted tree whose overlapping root-to-leaf paths are the learning
/// paths (the paper's Figures 1 and 3).
///
/// Nodes and edges live in chunk-allocated arenas: growth never relocates
/// an element, so references returned by `node()` / `edge()` stay valid for
/// the graph's lifetime (generators hold a parent reference across child
/// insertions instead of snapshot-copying its bitsets).
///
/// A graph has one arena *shard* by default. The parallel frontier engine
/// (`src/exec/`) configures one shard per worker: each worker appends nodes
/// and edges only to its own shard, so the hot path needs no locks or
/// atomics. Ids encode `(shard, local index)`; after a parallel run,
/// `Canonicalize()` renumbers the merged shards into exactly the id order a
/// serial run produces, making parallel output byte-identical to serial.
///
/// Thread-safety contract for multi-shard graphs: concurrent `AddChildTo`
/// calls must target distinct shards; a node may be read and mutated
/// (out_edges, is_goal) only by the worker that currently owns it via the
/// frontier (ownership transfer through the work-stealing deque provides
/// the happens-before edge); aggregate accessors (`num_nodes`,
/// `MemoryUsage`, traversals) are safe only once the workers have joined.
/// Cross-thread node access must go through the stable `LearningNode*`
/// carried by the frontier item, never through `node(id)` (the owning
/// shard's chunk table may be growing).
///
/// The graph tracks an approximate memory footprint so generators can
/// enforce the caller's memory budget — reproducing, deliberately, the
/// paper's "could not store the graph in memory" Table 2 cells.
class LearningGraph {
 public:
  /// Shard-id bit layout of NodeId/EdgeId: high bits select the shard,
  /// low bits the index within it.
  static constexpr int kShardShift = 27;
  static constexpr int kMaxShards = 16;
  static constexpr int32_t kLocalMask = (int32_t{1} << kShardShift) - 1;
  /// Once a shard holds this many nodes its `allocation_failed` flag trips,
  /// surfacing as ResourceExhausted before local indices can overflow the
  /// id encoding.
  static constexpr int32_t kShardSoftCapacity = kLocalMask - 4096;

  LearningGraph() : shards_(1) {}

  LearningGraph(const LearningGraph&) = delete;
  LearningGraph& operator=(const LearningGraph&) = delete;
  LearningGraph(LearningGraph&&) = default;
  LearningGraph& operator=(LearningGraph&&) = default;

  /// Splits the arenas into `num_shards` (1..kMaxShards). Must be called
  /// before any node exists; the parallel engine allocates one shard per
  /// worker.
  void ConfigureShards(int num_shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Creates the start node `n_1` in shard 0. Must be called exactly once,
  /// first.
  NodeId AddRoot(Term term, DynamicBitset completed, DynamicBitset options);

  /// Creates a node one semester after `parent` plus the edge electing
  /// `selection` in the parent's semester. The child's path cost defaults
  /// to `parent.path_cost + edge_cost` (additive rankings).
  NodeId AddChild(NodeId parent, DynamicBitset selection,
                  DynamicBitset completed, DynamicBitset options,
                  double edge_cost = 0.0);

  /// Like AddChild, but with an explicit accumulated path cost — for
  /// rankings whose fold is not addition (see RankingFunction::Combine).
  NodeId AddChildWithPathCost(NodeId parent, DynamicBitset selection,
                              DynamicBitset completed, DynamicBitset options,
                              double edge_cost, double path_cost);

  /// A freshly created child: its id plus a stable pointer the creating
  /// worker hands to the frontier (cross-thread reads go through the
  /// pointer, never through `node(id)`).
  struct CreatedChild {
    NodeId id = kInvalidNodeId;
    LearningNode* node = nullptr;
  };

  /// Parallel-engine variant of AddChild: materializes the child and its
  /// inbound edge in `shard`, linking it under `*parent` (which the caller
  /// must own exclusively; `parent_id` is its id). Only the worker that
  /// owns `shard` may call this for that shard.
  CreatedChild AddChildTo(int shard, NodeId parent_id, LearningNode* parent,
                          DynamicBitset selection, DynamicBitset completed,
                          DynamicBitset options, double edge_cost,
                          double path_cost);

  void MarkGoal(NodeId id) { node_mut(id).is_goal = true; }

  /// Stable mutable pointer to a node, for seeding the parallel frontier
  /// (typically the root). Subject to the thread-safety contract above:
  /// the caller must hold exclusive ownership of the node.
  LearningNode* stable_node_ptr(NodeId id) { return &node_mut(id); }

  int64_t num_nodes() const {
    int64_t n = 0;
    for (const Shard& shard : shards_) {
      n += static_cast<int64_t>(shard.nodes.size());
    }
    return n;
  }
  int64_t num_edges() const {
    int64_t n = 0;
    for (const Shard& shard : shards_) {
      n += static_cast<int64_t>(shard.edges.size());
    }
    return n;
  }

  const LearningNode& node(NodeId id) const {
    const Shard& shard = shards_[static_cast<size_t>(id >> kShardShift)];
    return shard.nodes[static_cast<size_t>(id & kLocalMask)];
  }
  const LearningEdge& edge(EdgeId id) const {
    const Shard& shard = shards_[static_cast<size_t>(id >> kShardShift)];
    return shard.edges[static_cast<size_t>(id & kLocalMask)];
  }

  NodeId root() const {
    return shards_[0].nodes.empty() ? kInvalidNodeId : 0;
  }

  /// Ids of all nodes flagged as goals, in id order (for canonical graphs,
  /// creation order).
  std::vector<NodeId> GoalNodes() const;

  /// Ids of all nodes with no outgoing edges (path terminals).
  std::vector<NodeId> LeafNodes() const;

  /// Approximate heap bytes held by nodes, edges, and their bitsets, summed
  /// over all shards. Only safe once workers have joined.
  size_t MemoryUsage() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.memory_bytes;
    return total;
  }

  /// Heap bytes the graph actually holds: every allocated arena chunk
  /// (chunks hold 1,024 slots, so a one-node graph holds a whole node
  /// chunk) plus each node's out-edge list and any bitset words spilled to
  /// the heap. MemoryUsage() instead charges sizeof per stored element, the
  /// estimate the generators' budgets use. O(nodes + edges); only safe
  /// once workers have joined.
  size_t AllocatedBytes() const;

  /// Per-shard memory footprint — safe for the owning worker to poll while
  /// the run is live (feeds the parallel engine's atomic budget counters).
  size_t ShardMemoryUsage(int shard) const {
    return shards_[static_cast<size_t>(shard)].memory_bytes;
  }

  /// True once the fault injector simulated an allocation failure in this
  /// graph's arenas (see util/fault_injection.h), or a shard reached its id
  /// soft capacity. Generators surface it as ResourceExhausted at their
  /// next budget check; the node materialized by the failing call is still
  /// valid, so the graph stays well-formed. Only safe once workers have
  /// joined (workers poll their own shard via ShardAllocationFailed).
  bool allocation_failed() const {
    for (const Shard& shard : shards_) {
      if (shard.allocation_failed) return true;
    }
    return false;
  }

  /// Shard-local view of the allocation-failure flag (each worker only ever
  /// allocates into — and therefore only ever trips — its own shard).
  bool ShardAllocationFailed(int shard) const {
    return shards_[static_cast<size_t>(shard)].allocation_failed;
  }

  /// Structural validator (debug builds): aborts via CN_CHECK when the
  /// graph is corrupt. Verifies shard/id encoding consistency (every
  /// parent/child/out-edge id decodes to a live arena slot), the
  /// edges↔non-root-nodes bijection, strict term advance along every edge
  /// (which proves the parent links acyclic), selection/completed-set
  /// algebra (`child.X = parent.X ∪ W`, `W ⊆ parent.Y`), uniform bitset
  /// universes, and — for canonicalized single-shard graphs — that the
  /// contiguous numbering orders every parent before its children.
  ///
  /// O(nodes + edges); call sites gate on CN_DCHECK_IS_ON() (Canonicalize
  /// self-checks its output under the `dcheck` preset). Always compiled,
  /// so tests can invoke it directly in any build.
  void CheckInvariants() const;

  /// Renumbers the graph into the node/edge id order a serial run produces
  /// (the generators' LIFO expansion order over each node's out-edges) and
  /// merges all shards into one arena. After a *complete* parallel run the
  /// result is byte-identical to the serial graph regardless of worker
  /// count; for budget-truncated runs it is a well-formed renumbering of
  /// whatever was materialized. No-op for single-shard graphs (a serial run
  /// is already canonical).
  void Canonicalize();

 private:
  /// Test-only backdoor (tests/lint_test.cc): hand-corrupts arenas to
  /// prove CheckInvariants rejects structurally invalid graphs.
  friend class LearningGraphTestPeer;

  struct Shard {
    ChunkedVector<LearningNode> nodes;
    ChunkedVector<LearningEdge> edges;
    size_t memory_bytes = 0;
    bool allocation_failed = false;
  };

  LearningNode& node_mut(NodeId id) {
    Shard& shard = shards_[static_cast<size_t>(id >> kShardShift)];
    return shard.nodes[static_cast<size_t>(id & kLocalMask)];
  }
  LearningEdge& edge_mut(EdgeId id) {
    Shard& shard = shards_[static_cast<size_t>(id >> kShardShift)];
    return shard.edges[static_cast<size_t>(id & kLocalMask)];
  }

  std::vector<Shard> shards_;
};

}  // namespace coursenav

#endif  // COURSENAV_GRAPH_LEARNING_GRAPH_H_
