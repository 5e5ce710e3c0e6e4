#ifndef COURSENAV_GRAPH_LEARNING_GRAPH_H_
#define COURSENAV_GRAPH_LEARNING_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "util/bitset.h"
#include "util/chunked_vector.h"

namespace coursenav {

using NodeId = int32_t;
using EdgeId = int32_t;

inline constexpr NodeId kInvalidNodeId = -1;
inline constexpr EdgeId kInvalidEdgeId = -1;

/// A node's out-edges, as the contiguous run of edge ids
/// `[first, first + size())`. An edge's id is its child's node id (the
/// child stores the edge; see `LearningGraph`), and every generator emits a
/// node's children back to back into one arena shard, so the children of
/// one node never interleave with other nodes and a `(first, count)` pair
/// replaces a per-node id vector. Iterates `EdgeId`s by value, ascending
/// (creation order).
class EdgeRange {
 public:
  EdgeRange() = default;

  size_t size() const { return static_cast<size_t>(count_); }
  bool empty() const { return count_ == 0; }
  /// True if `id` is one of this node's out-edges.
  bool contains(EdgeId id) const {
    return id >= first_ && int64_t{id} - first_ < count_;
  }

  auto begin() const { return ids().begin(); }
  auto end() const { return ids().end(); }
  auto rbegin() const { return std::make_reverse_iterator(end()); }
  auto rend() const { return std::make_reverse_iterator(begin()); }

  /// Equal when both list the same edge ids (any two empty ranges are).
  friend bool operator==(const EdgeRange& a, const EdgeRange& b) {
    return a.count_ == b.count_ && (a.count_ == 0 || a.first_ == b.first_);
  }

 private:
  friend class LearningGraph;

  /// Its iterators hold the id itself, so they outlive the view.
  std::ranges::iota_view<EdgeId, EdgeId> ids() const {
    return std::views::iota(first_, first_ + count_);
  }

  EdgeId first_ = kInvalidEdgeId;
  int32_t count_ = 0;
};

/// One enrollment status `n_i` (Section 2): the semester `s_i` and the
/// courses completed by then `X_i`, plus the status's inbound edge
/// `e(n_{i-1}, n_i)`. The status's course options `Y_i` are a pure function
/// of `(s_i, X_i)` given the catalog, schedule and avoid set, and only an
/// expanded status reads them, so they are derived when needed
/// (`ComputeOptions`, catalog/catalog.h), not stored.
///
/// The graph is a tree, so every node but the root has exactly one inbound
/// edge; it is stored here, in the child (`parent`, `edge_cost`), and there
/// is no separate edge arena. Its selection is not stored either: it is
/// `W = X_i \ X_parent` (`LearningGraph::edge()`), because a selection
/// elects only courses not yet completed. The out-edges are a child range,
/// not a list. Node payloads keep their bitsets inline
/// (array-of-structures): the chunked arenas' stable-pointer contract is
/// what lets parallel workers hold `LearningNode*` across shard growth, so
/// the sets of *materialized* nodes cannot be hoisted into per-field
/// matrices without breaking every such reference. The data-oriented hot
/// path lives one level up instead — generators stage each expansion's
/// *candidate* children in a structure-of-arrays `internal::CandidateBatch`
/// (contiguous completed / selection word matrices) and run the SIMD
/// pruning kernels there, only copying survivors into arena nodes.
struct LearningNode {
  Term term;
  /// Source of the inbound edge; kInvalidNodeId at the root.
  NodeId parent = kInvalidNodeId;
  DynamicBitset completed;  ///< X_i
  /// The inbound edge's cost under the active ranking function.
  double edge_cost = 0.0;
  /// Accumulated path cost from the root under the active ranking function
  /// (0 when no ranking is in effect).
  double path_cost = 0.0;
  EdgeRange out_edges;
  /// Set when this node satisfies the exploration task's condition (for
  /// deadline-driven paths: `s_i == d`; for goal-driven: the goal holds).
  bool is_goal = false;
};

/// One transition `e(n_i, n_{i+1})`: the course selection `W_{i,i+1}`
/// elected in semester `s_i`. Edges are stored in their child node;
/// `LearningGraph::edge()` builds this value from one.
struct LearningEdge {
  NodeId from;
  NodeId to;
  DynamicBitset selection;  ///< W_{i,i+1} = X_{i+1} \ X_i ⊆ Y_i
  double cost;              ///< cost under the active ranking function
};

/// The learning graph `G(E, V)` produced by the generators.
///
/// Generators expand statuses forward in time, so the materialized graph is
/// a rooted tree whose overlapping root-to-leaf paths are the learning
/// paths (the paper's Figures 1 and 3).
///
/// Nodes live in chunk-allocated arenas: growth never relocates an element,
/// so references returned by `node()` stay valid for the graph's lifetime
/// (generators hold a parent reference across child insertions instead of
/// snapshot-copying its bitsets). Each non-root node also holds its inbound
/// edge, so edges have no arena of their own: an edge's id is its child's
/// node id, and `edge()` derives the edge from that node and its parent. A
/// canonical graph's edges are therefore ids `1..num_nodes() - 1`, in
/// creation order. A node's children are created back to back in one
/// shard, so its out-edges are one contiguous id range; adding a child to a
/// node whose range another node has since closed fails a CN_CHECK.
///
/// A *parent-linked* graph (`ParentLinked()`) keeps no child ranges, so a
/// parent's children need not be back to back. The ranked search stores
/// its statuses in one: partial expansion adds a re-popped status's
/// children after other statuses' children. Its nodes' `out_edges` stay
/// empty (so `LeafNodes()` lists every node), and its paths are read
/// through parent links (`LearningPath::FromGraph`).
///
/// A graph has one arena *shard* by default. The parallel frontier engine
/// (`src/exec/`) configures one shard per worker: each worker appends nodes
/// only to its own shard, so the hot path needs no locks or atomics. Ids
/// encode `(shard, local index)`; after a parallel run, `Canonicalize()`
/// renumbers the merged shards into exactly the id order a serial run
/// produces, making parallel output byte-identical to serial.
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

  /// An empty graph whose nodes link only to their parent (see the class
  /// comment). It has one shard.
  static LearningGraph ParentLinked() {
    LearningGraph graph;
    graph.child_ranges_ = false;
    return graph;
  }

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
  NodeId AddRoot(Term term, DynamicBitset completed);

  /// Creates a node one semester after `parent`, reached by the edge
  /// electing `selection` (courses the parent has not completed) in the
  /// parent's semester: its completed set is `parent.completed ∪
  /// selection`. The child's path cost defaults to `parent.path_cost +
  /// edge_cost` (additive rankings). A parent's children must be added back
  /// to back unless the graph is parent-linked (see the class comment).
  NodeId AddChild(NodeId parent, const DynamicBitset& selection,
                  double edge_cost = 0.0);

  /// Like AddChild, but with an explicit accumulated path cost — for
  /// rankings whose fold is not addition (see RankingFunction::Combine).
  NodeId AddChildWithPathCost(NodeId parent, const DynamicBitset& selection,
                              double edge_cost, double path_cost);

  /// A freshly created child: its id plus a stable pointer the creating
  /// worker hands to the frontier (cross-thread reads go through the
  /// pointer, never through `node(id)`).
  struct CreatedChild {
    NodeId id = kInvalidNodeId;
    LearningNode* node = nullptr;
  };

  /// Parallel-engine variant of AddChild: materializes the child (with its
  /// inbound edge) in `shard`, linking it under `*parent` (which the caller
  /// must own exclusively; `parent_id` is its id). Only the worker that
  /// owns `shard` may call this for that shard.
  CreatedChild AddChildTo(int shard, NodeId parent_id, LearningNode* parent,
                          const DynamicBitset& selection, double edge_cost,
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
  /// Every non-root node has exactly one inbound edge.
  int64_t num_edges() const {
    const int64_t nodes = num_nodes();
    return nodes == 0 ? 0 : nodes - 1;
  }

  const LearningNode& node(NodeId id) const {
    const Shard& shard = shards_[static_cast<size_t>(id >> kShardShift)];
    return shard.nodes[static_cast<size_t>(id & kLocalMask)];
  }
  /// Edge `id`, read from the child node `id` that stores it; its
  /// selection is `child.completed \ parent.completed`. Edges lead into
  /// non-root nodes only.
  LearningEdge edge(EdgeId id) const {
    const LearningNode& child = node(id);
    DynamicBitset selection = child.completed;
    selection.Subtract(node(child.parent).completed);
    return LearningEdge{child.parent, id, std::move(selection),
                        child.edge_cost};
  }

  NodeId root() const {
    return shards_[0].nodes.empty() ? kInvalidNodeId : 0;
  }

  /// Ids of all nodes flagged as goals, in id order (for canonical graphs,
  /// creation order).
  std::vector<NodeId> GoalNodes() const;

  /// Ids of all nodes with no outgoing edges (path terminals).
  std::vector<NodeId> LeafNodes() const;

  /// Approximate heap bytes held by nodes and their bitsets, summed over
  /// all shards. Only safe once workers have joined.
  size_t MemoryUsage() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.memory_bytes;
    return total;
  }

  /// Heap bytes the graph actually holds: every allocated arena chunk
  /// (chunks hold 1,024 slots, so a one-node graph holds a whole node
  /// chunk) plus any bitset words spilled to the heap. MemoryUsage()
  /// instead charges sizeof per stored node, the estimate the generators'
  /// budgets use. O(shards); only safe once workers have joined.
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
  /// parent and child-range id decodes to a live arena slot), that parent
  /// links and child ranges agree (each non-root node lies in its parent's
  /// range, each range lists only nodes naming that parent; a
  /// parent-linked graph holds no ranges at all), strict term
  /// advance along every edge (which proves the parent links acyclic),
  /// completed sets that only grow (`parent.X ⊆ child.X`), uniform bitset
  /// universes, and — for canonicalized single-shard graphs — that the
  /// contiguous numbering orders every parent before its children.
  ///
  /// O(nodes); call sites gate on CN_DCHECK_IS_ON() (Canonicalize
  /// self-checks its output under the `dcheck` preset). Always compiled,
  /// so tests can invoke it directly in any build.
  void CheckInvariants() const;

  /// Availability validator: aborts via CN_CHECK unless every selection
  /// was available, `W ⊆ Y(parent)`. The graph stores no option sets, so
  /// `RecordedOptions` derives `Y(parent)` from `catalog`, `schedule` and
  /// the run's `avoid` set.
  /// O(nodes); the executor runs it after every run in dcheck builds.
  void CheckAvailability(const Catalog& catalog,
                         const OfferingSchedule& schedule,
                         const std::optional<DynamicBitset>& avoid) const;

  /// Renumbers the graph into the node/edge id order a serial run produces
  /// (the generators' LIFO expansion order over each node's out-edges) and
  /// merges all shards into one arena. After a *complete* parallel run the
  /// result is byte-identical to the serial graph regardless of worker
  /// count; for budget-truncated runs it is a well-formed renumbering of
  /// whatever was materialized. No-op for single-shard graphs (a serial run
  /// is already canonical).
  ///
  /// The merge moves each node once, in canonical order, and reuses the
  /// shards' own chunks: a source chunk whose nodes have all moved becomes
  /// the merged arena's next chunk. So it holds one graph plus the chunks
  /// not yet drained, never two copies, and it allocates nothing through
  /// the `graph/alloc` fault seam (the nodes already exist).
  void Canonicalize();

 private:
  /// Test-only backdoor (tests/lint_test.cc): hand-corrupts arenas to
  /// prove CheckInvariants rejects structurally invalid graphs.
  friend class LearningGraphTestPeer;

  struct Shard {
    ChunkedVector<LearningNode> nodes;
    size_t memory_bytes = 0;
    bool allocation_failed = false;
  };

  LearningNode& node_mut(NodeId id) {
    Shard& shard = shards_[static_cast<size_t>(id >> kShardShift)];
    return shard.nodes[static_cast<size_t>(id & kLocalMask)];
  }

  std::vector<Shard> shards_;
  /// False for a parent-linked graph.
  bool child_ranges_ = true;
};

}  // namespace coursenav

#endif  // COURSENAV_GRAPH_LEARNING_GRAPH_H_
