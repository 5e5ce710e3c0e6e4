// coursenav:deterministic — parallel expansion must match serial output.
#include "core/parallel_bridge.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/combinations.h"
#include "core/enrollment.h"
#include "exec/work_queue.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/string_util.h"
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

  /// Conservative pre-check for batched expansion: true when materializing
  /// up to `staged` more nodes could reach the node budget. Workers flush
  /// their staged batch when this fires so the exact `CheckLimits` below
  /// sees the same node count the unbatched loop would have.
  bool MightExceedNodeBudget(size_t staged) const {
    return limits_.max_nodes > 0 &&
           nodes_.load(std::memory_order_relaxed) +
                   static_cast<int64_t>(staged) >=
               limits_.max_nodes;
  }

  /// The global node/byte limits, mirroring ExplorationEngine::CheckBudget's
  /// wording and order.
  Status CheckLimits() const {
    if (limits_.max_nodes > 0 &&
        nodes_.load(std::memory_order_relaxed) >= limits_.max_nodes) {
      return Status::ResourceExhausted(
          StrFormat("node budget of %lld reached",
                    static_cast<long long>(limits_.max_nodes)));
    }
    if (limits_.max_memory_bytes > 0 &&
        memory_.load(std::memory_order_relaxed) >=
            static_cast<int64_t>(limits_.max_memory_bytes)) {
      return Status::ResourceExhausted(StrFormat(
          "memory budget of %zu bytes reached", limits_.max_memory_bytes));
    }
    return Status::OK();
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
  WorkerCtx(int worker_index, const ParallelExpandSpec& spec,
            ExplorationEngine& engine, double remaining_seconds,
            SharedAvailabilityCache* shared_cache)
      : shard(worker_index),
        metrics(nullptr),  // detached tally sheet, folded at join
        deadline(remaining_seconds, spec.options->cancel),
        scratch(spec.catalog->size()),
        selection_scratch(spec.catalog->size()) {
    if (spec.goal != nullptr) {
      oracle.emplace(*spec.goal, engine, *spec.options, *spec.config,
                     &metrics, shared_cache);
    }
    batch.Configure(spec.catalog->size());
  }

  int shard;
  obs::ExplorationMetrics metrics;
  DeadlineBudget deadline;
  std::optional<PruningOracle> oracle;
  /// Reused scratch bitsets: staged batch rows are copied back into these
  /// (assigned, not reallocated) when a kept candidate is materialized.
  DynamicBitset scratch;
  DynamicBitset selection_scratch;
  /// SoA staging buffer for the worker's current parent expansion, and the
  /// verdict vector ClassifyBatch fills for it.
  CandidateBatch batch;
  std::vector<PruningOracle::Verdict> verdicts;
  size_t last_memory = 0;
};

/// Everything the workers share, read-only or internally synchronized.
struct ExpandEnv {
  const ParallelExpandSpec* spec;
  ExplorationEngine* engine;
  LearningGraph* graph;
  BudgetSentinel* sentinel;
  exec::WorkStealingQueues<FrontierItem>* queues;
  /// Queued + in-flight frontier items; 0 <=> the expansion is complete.
  std::atomic<int64_t>* pending;
  /// The shared empty selection for skip edges (read-only).
  const DynamicBitset* empty_selection;
};

/// Mirror of ExplorationEngine::CheckBudget for one worker: same tally
/// (one `budget_checks` bump per call), same verdict order — allocation
/// failure, node budget, memory budget, then deadline/cancellation.
Status WorkerBudgetCheck(WorkerCtx& ctx, const ExpandEnv& env) {
  ++ctx.metrics.budget_checks;
  if (env.sentinel->stopped()) return env.sentinel->status();
  if (env.graph->ShardAllocationFailed(ctx.shard)) {
    return Status::ResourceExhausted(
        "simulated allocation failure (fault injection)");
  }
  Status limits = env.sentinel->CheckLimits();
  if (!limits.ok()) return limits;
  return ctx.deadline.Check();
}

/// Expands one frontier node, replicating the serial generators' loop body
/// candidate-for-candidate (deadline-driven when spec.goal is null, the
/// goal-driven variant otherwise).
void ExpandNode(WorkerCtx& ctx, int worker_index, const FrontierItem& item,
                const ExpandEnv& env) {
  Status budget = WorkerBudgetCheck(ctx, env);
  if (!budget.ok()) {
    env.sentinel->Trip(std::move(budget));
    return;
  }
  ctx.metrics.nodes_expanded += 1;

  LearningNode* node = item.node;
  const Term term = node->term;
  // Stable references: the arena never relocates the node, and this worker
  // owns it exclusively, so no snapshot copies (the serial loops' old
  // reallocation workaround) are needed.
  const DynamicBitset& completed = node->completed;
  const DynamicBitset& node_options = node->options;

  const ParallelExpandSpec& spec = *env.spec;
  if (spec.goal != nullptr) {
    if (spec.goal->IsSatisfied(completed)) {
      node->is_goal = true;
      ctx.metrics.terminal_paths += 1;
      ctx.metrics.goal_paths += 1;
      return;
    }
    if (term == spec.end_term) {
      ctx.metrics.terminal_paths += 1;
      ctx.metrics.dead_end_paths += 1;
      return;
    }
  } else if (term == spec.end_term) {
    node->is_goal = true;
    ctx.metrics.terminal_paths += 1;
    ctx.metrics.goal_paths += 1;
    return;
  }

  const Term child_term = term.Next();
  const int left_parent =
      spec.goal != nullptr ? ctx.oracle->LeftAt(completed) : 0;

  bool expanded = false;
  // Candidates are staged into the worker's SoA batch (fusing X_i ∪ W into
  // a contiguous row) and classified batch-at-a-time; kept rows are then
  // materialized in staging order, which is exactly enumeration order, so
  // the shard-local node sequence matches the unbatched loop.
  auto flush_batch = [&]() {
    if (ctx.batch.empty()) return;
    if (spec.goal != nullptr) {
      ctx.oracle->ClassifyBatch(ctx.batch, child_term, left_parent,
                                &ctx.verdicts);
    } else {
      ctx.verdicts.assign(ctx.batch.size(), PruningOracle::Verdict::kKeep);
    }
    for (size_t i = 0; i < ctx.batch.size(); ++i) {
      if (ctx.verdicts[i] != PruningOracle::Verdict::kKeep) continue;
      ctx.batch.CopyCompletedTo(i, &ctx.scratch);
      ctx.batch.CopySelectionTo(i, &ctx.selection_scratch);
      DynamicBitset next_options =
          ComputeOptions(*spec.catalog, *spec.schedule, ctx.scratch,
                         child_term, *spec.options);
      LearningGraph::CreatedChild child = env.graph->AddChildTo(
          ctx.shard, item.id, node, ctx.selection_scratch,
          DynamicBitset(ctx.scratch), std::move(next_options),
          /*edge_cost=*/0.0, /*path_cost=*/node->path_cost);
      ctx.metrics.nodes_created += 1;
      ctx.metrics.edges_created += 1;
      env.sentinel->AddNodes(1);
      size_t shard_memory = env.graph->ShardMemoryUsage(ctx.shard);
      env.sentinel->AddMemory(
          static_cast<int64_t>(shard_memory - ctx.last_memory));
      ctx.last_memory = shard_memory;
      env.pending->fetch_add(1, std::memory_order_relaxed);
      env.queues->Push(worker_index, FrontierItem{child.id, child.node});
      expanded = true;
    }
    ctx.batch.Clear();
  };

  // The goal-driven Equation 1 shortcut: selections below the minimum size
  // provably miss the deadline; account them without enumerating.
  int min_selection = 1;
  if (spec.goal != nullptr) {
    min_selection = ctx.oracle->MinSelectionSize(left_parent, term);
    if (min_selection > 1) {
      int skipped_max =
          std::min(min_selection - 1, spec.options->max_courses_per_term);
      ctx.oracle->AccountSkippedTimePruned(static_cast<int64_t>(
          CountSelections(node_options.count(), 1, skipped_max)));
    }
  }

  bool enumerate = !node_options.empty();
  if (spec.goal != nullptr) {
    enumerate = enumerate && min_selection <= node_options.count();
  }
  if (enumerate) {
    bool completed_enumeration = ForEachSelection(
        node_options, min_selection, spec.options->max_courses_per_term,
        [&](const DynamicBitset& selection) {
          // Flush before the exact budget check whenever the staged rows
          // could cross the node budget, so `CheckLimits` sees the same
          // node tally the unbatched loop would have at this selection.
          if (!ctx.batch.empty() &&
              env.sentinel->MightExceedNodeBudget(ctx.batch.size())) {
            flush_batch();
          }
          Status per_selection = WorkerBudgetCheck(ctx, env);
          if (!per_selection.ok()) {
            // Candidates staged before the trip already passed their budget
            // checks; materialize them (matching the unbatched loop) before
            // propagating the verdict.
            flush_batch();
            env.sentinel->Trip(std::move(per_selection));
            return false;
          }
          ctx.batch.Push(completed, selection);
          if (ctx.batch.full()) flush_batch();
          return true;
        });
    // Mirrors the serial `break`: a truncated node is left partially
    // expanded and never accounted as terminal.
    if (!completed_enumeration) return;
  }

  bool skip_edge = spec.options->allow_voluntary_skip ||
                   (node_options.empty() &&
                    env.engine->FutureCourseExists(completed, term));
  if (skip_edge) ctx.batch.Push(completed, *env.empty_selection);
  flush_batch();

  if (!expanded) {
    ctx.metrics.terminal_paths += 1;
    ctx.metrics.dead_end_paths += 1;
  }
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
                              const ParallelExpandSpec& spec, int num_workers,
                              LearningGraph* graph) {
  num_workers = EffectiveWorkers(num_workers);

  BudgetSentinel sentinel(spec.options->limits, graph->num_nodes(),
                          graph->MemoryUsage());
  exec::WorkStealingQueues<FrontierItem> queues(num_workers);
  std::atomic<int64_t> pending{1};  // the root
  const DynamicBitset empty_selection(spec.catalog->size());

  ExpandEnv env;
  env.spec = &spec;
  env.engine = &engine;
  env.graph = graph;
  env.sentinel = &sentinel;
  env.queues = &queues;
  env.pending = &pending;
  env.empty_selection = &empty_selection;

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
  SharedAvailabilityCache* shared_cache = spec.shared_availability != nullptr
                                              ? spec.shared_availability
                                              : &local_shared_cache;
  std::vector<std::unique_ptr<WorkerCtx>> ctxs;
  ctxs.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    // Constructed on this thread so the oracle's stage accumulators bind
    // the run's tracer (sampling from workers is safe: each accumulator is
    // single-worker, and clock reads are const).
    ctxs.push_back(std::make_unique<WorkerCtx>(
        w, spec, engine, per_worker_deadline, shared_cache));
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
    if (ctx->oracle.has_value()) oracles.push_back(&*ctx->oracle);
  }
  PruningOracle::EmitStageSpans(oracles);

  Status termination = sentinel.status();
  graph->Canonicalize();
  return termination;
}

}  // namespace coursenav::internal
