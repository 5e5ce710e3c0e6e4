// coursenav:deterministic — parallel expansion must match serial output.
#include "core/parallel_bridge.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/expand.h"
#include "core/stats.h"
#include "exec/work_queue.h"
#include "exec/worker_pool.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coursenav::internal {

int EffectiveWorkers(int num_threads) {
  if (num_threads < 1) return 1;
  return std::min(num_threads, LearningGraph::kMaxShards);
}

namespace {

/// One frontier entry: a node awaiting expansion. The stable pointer is the
/// cross-thread access path — `graph.node(id)` may race with the owning
/// shard's chunk-table growth, the pointed-at node never moves.
struct FrontierItem {
  NodeId id = kInvalidNodeId;
  LearningNode* node = nullptr;
};

/// Global budget state shared by all workers: relaxed-atomic node/byte
/// tallies (exactness is not needed — the serial path's own checks are
/// already >= comparisons against a running total) plus a sticky stop
/// verdict. The first worker to observe any non-OK condition trips the
/// sentinel; everyone else observes `stopped()` at the next check and
/// unwinds, leaving a well-formed partial graph.
///
/// Workers publish their tallies at their budget checks, not per child.
/// Between two checks a worker adds at most one candidate batch of
/// children, so the tallies lag the graph by at most `margin_nodes_`
/// (workers × batch capacity) nodes. Within that margin of a limit each
/// child is published as it is added, and within it of the node budget
/// each staged row is handed over before the next check, so a truncated
/// run overshoots its node budget by at most one batch per worker.
class BudgetSentinel {
 public:
  BudgetSentinel(const ExplorationLimits& limits, int num_workers,
                 int64_t initial_nodes, size_t initial_memory)
      : limits_(limits),
        margin_nodes_(int64_t{num_workers} *
                      static_cast<int64_t>(CandidateBatch::kDefaultCapacity)),
        nodes_(initial_nodes),
        memory_(static_cast<int64_t>(initial_memory)) {}

  void Add(int64_t nodes, size_t bytes) {
    nodes_.fetch_add(nodes, std::memory_order_relaxed);
    memory_.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  }

  /// True when the unpublished tallies could reach the node budget, or
  /// the memory budget at `node_bytes` per node.
  bool NearLimits(size_t node_bytes) const {
    return (limits_.max_nodes > 0 &&
            nodes_.load(std::memory_order_relaxed) + margin_nodes_ >=
                limits_.max_nodes) ||
           (limits_.max_memory_bytes > 0 &&
            memory_.load(std::memory_order_relaxed) +
                    margin_nodes_ * static_cast<int64_t>(node_bytes) >=
                static_cast<int64_t>(limits_.max_memory_bytes));
  }

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Records the first non-OK verdict; later trips are ignored.
  void Trip(Status status) {
    MutexLock lock(mu_);
    if (!status_.ok()) return;
    status_ = std::move(status);
    stopped_.store(true, std::memory_order_release);
  }

  /// The tripping verdict (OK while running).
  Status status() const {
    MutexLock lock(mu_);
    return status_;
  }

  /// Could `staged` more nodes reach the node budget, counting the nodes
  /// and staged rows other workers may not have published yet? Within
  /// that margin a worker hands over each row as it stages it, so its
  /// exact check sees every node published so far.
  bool NearNodeBudget(size_t staged) const {
    return internal::NearNodeBudget(
        limits_, nodes_.load(std::memory_order_relaxed) + margin_nodes_,
        staged);
  }

  /// The global node/byte limits, after the calling worker's own shard
  /// allocation flag.
  Status CheckLimits(bool allocation_failed) const {
    return CheckGraphLimits(
        limits_, allocation_failed, nodes_.load(std::memory_order_relaxed),
        static_cast<size_t>(memory_.load(std::memory_order_relaxed)));
  }

 private:
  /// Every worker polls `stopped_`; the tallies are written by all of them.
  static constexpr size_t kCacheLineBytes = 64;

  const ExplorationLimits& limits_;
  const int64_t margin_nodes_;
  std::atomic<int64_t> nodes_;
  std::atomic<int64_t> memory_;
  alignas(kCacheLineBytes) std::atomic<bool> stopped_{false};
  mutable Mutex mu_;
  /// Written once (first trip), read at unwind.
  Status status_ CN_GUARDED_BY(mu_);
};

/// Per-worker state. Everything here is touched by exactly one worker
/// during the run; the main thread constructs it (binding the thread-local
/// tracer into the oracle's stage accumulators) and folds it at join.
struct WorkerCtx {
  WorkerCtx(int worker_index, const ExplorationEngine& engine,
            const ExpandSpec& spec, double remaining_seconds)
      : shard(worker_index),
        deadline(remaining_seconds, engine.options().cancel),
        expander(engine, spec, &tallies) {}

  int shard;
  /// The worker's tally sheet, merged into the run's at join.
  ExplorationStats tallies;
  DeadlineBudget deadline;
  Expander expander;
  /// The expansion's children, pushed together once it ends.
  std::vector<FrontierItem> children;
  /// Nodes created, and the shard's bytes, not yet added to the sentinel.
  int64_t unpublished_nodes = 0;
  size_t published_memory = 0;
};

/// Everything the workers share, read-only or internally synchronized.
struct ExpandEnv {
  LearningGraph* graph;
  BudgetSentinel* sentinel;
  exec::WorkStealingQueues<FrontierItem>* queues;
  /// Queued + in-flight frontier items; 0 <=> the expansion is complete.
  std::atomic<int64_t>* pending;
};

/// A worker's sink: its budget check runs against the global sentinel, and
/// a kept child becomes a node in the worker's shard, queued for the deque.
struct WorkerSink {
  WorkerCtx& ctx;
  const ExpandEnv& env;
  FrontierItem parent;

  bool NearNodeBudget(size_t staged) const {
    return env.sentinel->NearNodeBudget(staged);
  }

  /// A failing check trips the sentinel.
  bool CheckBudget() {
    Status status = Verdict();
    if (status.ok()) return true;
    env.sentinel->Trip(std::move(status));
    return false;
  }

  /// ExplorationEngine::CheckBudget for one worker: same tally (one
  /// `budget_checks` bump per call), same verdict order — allocation
  /// failure, node budget, memory budget, then deadline/cancellation.
  Status Verdict() {
    ++ctx.tallies.budget_checks;
    if (env.sentinel->stopped()) return env.sentinel->status();
    PublishTallies();
    COURSENAV_RETURN_IF_ERROR(env.sentinel->CheckLimits(
        env.graph->ShardAllocationFailed(ctx.shard)));
    return ctx.deadline.Check();
  }

  void PublishTallies() {
    if (ctx.unpublished_nodes == 0) return;
    const size_t shard_memory = env.graph->ShardMemoryUsage(ctx.shard);
    env.sentinel->Add(ctx.unpublished_nodes,
                      shard_memory - ctx.published_memory);
    ctx.unpublished_nodes = 0;
    ctx.published_memory = shard_memory;
  }

  bool Add(const CandidateBatch& batch, size_t row) {
    ctx.expander.UnpackChild(batch, row);
    const size_t shard_memory = env.graph->ShardMemoryUsage(ctx.shard);
    LearningGraph::CreatedChild child =
        ctx.expander.AddChild(*env.graph, ctx.shard, parent.id, parent.node,
                              /*edge_cost=*/0.0, parent.node->path_cost);
    ctx.children.push_back(FrontierItem{child.id, child.node});
    ++ctx.unpublished_nodes;
    if (env.sentinel->NearLimits(env.graph->ShardMemoryUsage(ctx.shard) -
                                 shard_memory)) {
      PublishTallies();
    }
    return true;
  }
};

/// Expands one frontier node through the shared kernel (a failed budget
/// check leaves it unexpanded), then queues its children with one lock.
/// The node's own `pending` count passes to its children.
void ExpandNode(WorkerCtx& ctx, int worker_index, const FrontierItem& item,
                const ExpandEnv& env) {
  WorkerSink sink{ctx, env, item};
  if (sink.CheckBudget()) {
    ctx.tallies.nodes_expanded += 1;
    // The worker owns the popped node exclusively and the arena never
    // relocates it, so its sets are read in place.
    LearningNode* node = item.node;
    const Expansion expansion =
        ctx.expander.Expand(node->term, node->completed, sink);
    if (expansion == Expansion::kGoal) node->is_goal = true;
    CountLeaf(expansion, ctx.tallies);
  }
  // Counted before they become visible, so `pending` cannot read 0 while
  // they wait to be pushed.
  const int64_t children = static_cast<int64_t>(ctx.children.size());
  if (children != 1) {
    env.pending->fetch_add(children - 1, std::memory_order_acq_rel);
  }
  if (children == 0) return;
  env.queues->Push(worker_index, std::span<FrontierItem>(ctx.children));
  ctx.children.clear();
}

void WorkerBody(int worker_index, WorkerCtx& ctx, const ExpandEnv& env) {
  for (;;) {
    if (env.sentinel->stopped()) return;
    FrontierItem item;
    if (env.queues->TryPopLocal(worker_index, &item) ||
        env.queues->TrySteal(worker_index, &item)) {
      ExpandNode(ctx, worker_index, item, env);
      continue;
    }
    if (env.pending->load(std::memory_order_acquire) == 0) return;
    std::this_thread::yield();
  }
}

}  // namespace

Status ExpandFrontierParallel(ExplorationEngine& engine,
                              const ExpandSpec& spec, int num_workers,
                              LearningGraph* graph) {
  num_workers = EffectiveWorkers(num_workers);

  BudgetSentinel sentinel(engine.options().limits, num_workers,
                          graph->num_nodes(), graph->MemoryUsage());
  exec::WorkStealingQueues<FrontierItem> queues(num_workers);
  std::atomic<int64_t> pending{1};  // the root
  const ExpandEnv env{graph, &sentinel, &queues, &pending};

  // Per-worker deadlines inherit whatever wall-clock budget the engine has
  // left (the engine's own DeadlineBudget keeps ticking for stats); +inf
  // means no deadline, an already-expired budget trips on the first check.
  double remaining = engine.budget().RemainingSeconds();
  double per_worker_deadline;
  if (std::isinf(remaining)) {
    per_worker_deadline = 0.0;  // no deadline
  } else {
    per_worker_deadline = remaining > 0 ? remaining : 1e-9;
  }

  std::vector<std::unique_ptr<WorkerCtx>> ctxs;
  ctxs.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    // Constructed on this thread so the oracle's stage accumulators bind
    // the run's tracer (sampling from workers is safe: each accumulator is
    // single-worker, and clock reads are const).
    ctxs.push_back(
        std::make_unique<WorkerCtx>(w, engine, spec, per_worker_deadline));
    ctxs[static_cast<size_t>(w)]->published_memory =
        graph->ShardMemoryUsage(w);
  }

  queues.Push(0, FrontierItem{graph->root(), graph->stable_node_ptr(0)});

  {
    exec::WorkerPool pool(num_workers);
    pool.Run([&](int w) { WorkerBody(w, *ctxs[static_cast<size_t>(w)], env); });
  }

  // Join: merge the per-worker tally sheets into the engine's (published
  // once, by the engine, at destruction), check each worker's verdict memo
  // (dcheck builds) and emit the run's pruning stage spans, one per
  // strategy across all workers.
  std::vector<const PruningOracle*> oracles;
  for (const std::unique_ptr<WorkerCtx>& ctx : ctxs) {
    engine.tallies().MergeFrom(ctx->tallies);
    if (const PruningOracle* oracle = ctx->expander.oracle()) {
      if (CN_DCHECK_IS_ON()) oracle->CheckInvariants();
      oracles.push_back(oracle);
    }
  }
  PruningOracle::EmitStageSpans(oracles);

  Status termination = sentinel.status();
  {
    // Opened after the stage spans, which stay children of expand/loop.
    obs::ScopedSpan canonicalize_span(obs::kSpanGraphCanonicalize);
    canonicalize_span.AddInt("nodes", graph->num_nodes());
    canonicalize_span.AddInt("shards", graph->num_shards());
    graph->Canonicalize();
  }
  return termination;
}

}  // namespace coursenav::internal
