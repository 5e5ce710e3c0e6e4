// coursenav:deterministic — parallel expansion must match serial output.
#include "core/parallel_bridge.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/expand.h"
#include "exec/work_queue.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
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
class BudgetSentinel {
 public:
  BudgetSentinel(const ExplorationLimits& limits, int64_t initial_nodes,
                 size_t initial_memory)
      : limits_(limits),
        nodes_(initial_nodes),
        memory_(static_cast<int64_t>(initial_memory)) {}

  void AddNodes(int64_t n) { nodes_.fetch_add(n, std::memory_order_relaxed); }
  void AddMemory(int64_t bytes) {
    memory_.fetch_add(bytes, std::memory_order_relaxed);
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

  bool NearNodeBudget(size_t staged) const {
    return internal::NearNodeBudget(
        limits_, nodes_.load(std::memory_order_relaxed), staged);
  }

  /// The global node/byte limits, after the calling worker's own shard
  /// allocation flag.
  Status CheckLimits(bool allocation_failed) const {
    return CheckGraphLimits(
        limits_, allocation_failed, nodes_.load(std::memory_order_relaxed),
        static_cast<size_t>(memory_.load(std::memory_order_relaxed)));
  }

 private:
  const ExplorationLimits& limits_;
  std::atomic<int64_t> nodes_;
  std::atomic<int64_t> memory_;
  std::atomic<bool> stopped_{false};
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
        metrics(nullptr),  // detached tally sheet, folded at join
        deadline(remaining_seconds, engine.options().cancel),
        expander(engine, spec, &metrics) {}

  int shard;
  obs::ExplorationMetrics metrics;
  DeadlineBudget deadline;
  Expander expander;
  size_t last_memory = 0;
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
/// a kept child becomes a node in the worker's shard, pushed on its deque.
struct WorkerSink {
  WorkerCtx& ctx;
  const ExpandEnv& env;
  int worker_index;
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
    ++ctx.metrics.budget_checks;
    if (env.sentinel->stopped()) return env.sentinel->status();
    COURSENAV_RETURN_IF_ERROR(env.sentinel->CheckLimits(
        env.graph->ShardAllocationFailed(ctx.shard)));
    return ctx.deadline.Check();
  }

  bool Add(const CandidateBatch& batch, size_t row) {
    ctx.expander.UnpackChild(batch, row);
    LearningGraph::CreatedChild child =
        ctx.expander.AddChild(*env.graph, ctx.shard, parent.id, parent.node,
                              /*edge_cost=*/0.0, parent.node->path_cost);
    env.sentinel->AddNodes(1);
    const size_t shard_memory = env.graph->ShardMemoryUsage(ctx.shard);
    env.sentinel->AddMemory(
        static_cast<int64_t>(shard_memory - ctx.last_memory));
    ctx.last_memory = shard_memory;
    env.pending->fetch_add(1, std::memory_order_relaxed);
    env.queues->Push(worker_index, FrontierItem{child.id, child.node});
    return true;
  }
};

/// Expands one frontier node through the shared kernel; a failed budget
/// check leaves it unexpanded.
void ExpandNode(WorkerCtx& ctx, int worker_index, const FrontierItem& item,
                const ExpandEnv& env) {
  WorkerSink sink{ctx, env, worker_index, item};
  if (!sink.CheckBudget()) return;
  ctx.metrics.nodes_expanded += 1;
  // The worker owns the popped node exclusively and the arena never
  // relocates it, so its sets are read in place.
  LearningNode* node = item.node;
  const Expansion expansion = ctx.expander.Expand(
      node->term, node->completed, &node->options, sink);
  if (expansion == Expansion::kGoal) node->is_goal = true;
  CountLeaf(expansion, ctx.metrics);
}

void WorkerBody(int worker_index, WorkerCtx& ctx, const ExpandEnv& env) {
  for (;;) {
    if (env.sentinel->stopped()) return;
    FrontierItem item;
    if (env.queues->TryPopLocal(worker_index, &item) ||
        env.queues->TrySteal(worker_index, &item)) {
      ExpandNode(ctx, worker_index, item, env);
      env.pending->fetch_sub(1, std::memory_order_acq_rel);
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

  BudgetSentinel sentinel(engine.options().limits, graph->num_nodes(),
                          graph->MemoryUsage());
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

  // The workers' L2: the caller's epoch-scoped process tier when one is
  // provided (src/cache/ promotes the verdicts across runs), a run-local
  // cache otherwise.
  SharedAvailabilityCache local_shared_cache;
  ExpandSpec worker_spec = spec;
  if (worker_spec.shared_availability == nullptr) {
    worker_spec.shared_availability = &local_shared_cache;
  }
  std::vector<std::unique_ptr<WorkerCtx>> ctxs;
  ctxs.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    // Constructed on this thread so the oracle's stage accumulators bind
    // the run's tracer (sampling from workers is safe: each accumulator is
    // single-worker, and clock reads are const).
    ctxs.push_back(std::make_unique<WorkerCtx>(w, engine, worker_spec,
                                               per_worker_deadline));
    ctxs[static_cast<size_t>(w)]->last_memory = graph->ShardMemoryUsage(w);
  }

  queues.Push(0, FrontierItem{graph->root(), graph->stable_node_ptr(0)});

  {
    exec::WorkerPool pool(num_workers);
    pool.Run([&](int w) { WorkerBody(w, *ctxs[static_cast<size_t>(w)], env); });
  }

  // Join: fold the detached per-worker tallies into the engine's bundle
  // (published once, by the engine, at destruction) and emit the run's
  // pruning stage spans, one per strategy across all workers.
  std::vector<const PruningOracle*> oracles;
  for (const std::unique_ptr<WorkerCtx>& ctx : ctxs) {
    engine.metrics().MergeFrom(ctx->metrics);
    if (ctx->expander.oracle() != nullptr) {
      oracles.push_back(ctx->expander.oracle());
    }
  }
  PruningOracle::EmitStageSpans(oracles);

  Status termination = sentinel.status();
  graph->Canonicalize();
  return termination;
}

}  // namespace coursenav::internal
