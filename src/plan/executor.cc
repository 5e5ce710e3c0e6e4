// coursenav:deterministic — path output order is part of the contract.
#include "plan/executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/enrollment.h"
#include "core/expand.h"
#include "core/filters.h"
#include "core/parallel_bridge.h"
#include "graph/learning_graph.h"
#include "graph/path.h"
#include "obs/trace.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/chunked_vector.h"

namespace coursenav::plan {
namespace {

/// Pipeline prologue, part 1 — the input validation all three generators
/// used to repeat: catalog/schedule/start/options consistency plus the
/// exploration window check.
Status ValidateRequest(const Catalog& catalog, const OfferingSchedule& schedule,
                       const ExplorationRequest& request) {
  COURSENAV_RETURN_IF_ERROR(ValidateExplorationInputs(
      catalog, schedule, request.start, request.options));
  if (request.end_term <= request.start.term) {
    return Status::InvalidArgument("end semester must be after the start");
  }
  return Status::OK();
}

/// Pipeline prologue, part 2 — the Source operator: the start node n1 with
/// X1 = X (lines 1-3 of Algorithm 1; its option set is derived when it is
/// expanded, like every status's), shared by every pipeline.
NodeId ConstructRoot(const ExplorationRequest& request, LearningGraph& graph,
                     ExplorationStats& tallies) {
  NodeId root = graph.AddRoot(request.start.term, request.start.completed);
  tallies.nodes_created += 1;
  return root;
}

/// The dcheck builds' proof that a run's graph is well-formed: the
/// structure, and (which needs the catalog the graph does not hold) that
/// every selection was available in its parent's semester.
void CheckGraph(const LearningGraph& graph, const Catalog& catalog,
                const OfferingSchedule& schedule,
                const ExplorationRequest& request) {
  graph.CheckInvariants();
  graph.CheckAvailability(catalog, schedule, request.options.avoid_courses);
}

/// What the serial sinks share: the engine's exact budget checks against
/// the run's graph, and the node being expanded, which kept children join.
struct SerialSink {
  internal::ExplorationEngine& engine;
  internal::Expander& expander;
  LearningGraph& graph;
  NodeId parent = kInvalidNodeId;
  LearningNode* node = nullptr;
  /// The verdict that stopped the run (OK while it runs).
  Status stop = Status::OK();

  bool NearNodeBudget(size_t staged) const {
    return internal::NearNodeBudget(engine.options().limits,
                                    graph.num_nodes(), staged);
  }
  /// `search_bytes` is what the run holds beside the graph, charged to
  /// the memory budget with it.
  bool CheckBudget(size_t search_bytes = 0) {
    Status status = engine.CheckBudget(graph, search_bytes);
    if (status.ok()) return true;
    stop = std::move(status);
    return false;
  }
  /// Materializes the unpacked child, costed by the caller, under `node`.
  NodeId AddChild(double edge_cost, double path_cost) {
    return expander.AddChild(graph, /*shard=*/0, parent, node, edge_cost,
                             path_cost)
        .id;
  }
};

/// Expands frontier node `current` through `sink`: counts the expansion,
/// marks goal leaves and tallies every leaf.
template <typename Sink>
internal::Expansion ExpandSerial(Sink& sink, NodeId current) {
  ExplorationStats& tallies = sink.engine.tallies();
  tallies.nodes_expanded += 1;
  sink.parent = current;
  // Arena storage never relocates nodes, so the pointer stays valid while
  // children are added.
  sink.node = sink.graph.stable_node_ptr(current);
  const internal::Expansion expansion =
      sink.expander.Expand(sink.node->term, sink.node->completed, sink);
  if (expansion == internal::Expansion::kGoal) sink.graph.MarkGoal(current);
  internal::CountLeaf(expansion, tallies);
  return expansion;
}

/// The LIFO frontier's sink: a kept child becomes a node on the worklist.
struct WorklistSink : SerialSink {
  std::vector<NodeId>& worklist;

  bool Add(const internal::CandidateBatch& batch, size_t row) {
    expander.UnpackChild(batch, row);
    worklist.push_back(AddChild(0.0, node->path_cost));
    return true;
  }
};

/// The serial LIFO frontier of the deadline- and goal-driven pipelines: a
/// worklist of nodes with out-degree 0 (line 4 of Algorithm 1). LIFO keeps
/// the frontier small and cache-warm; expansion order does not affect the
/// output set. Returns the run's termination.
Status ExpandWorklist(internal::ExplorationEngine& engine,
                      const internal::ExpandSpec& spec, LearningGraph& graph) {
  internal::Expander expander(engine, spec);
  std::vector<NodeId> worklist{graph.root()};
  WorklistSink sink{{engine, expander, graph}, worklist};
  while (!worklist.empty() && sink.CheckBudget()) {
    const NodeId current = worklist.back();
    worklist.pop_back();
    if (ExpandSerial(sink, current) == internal::Expansion::kStopped) break;
  }
  // Inside expand/loop, like the parallel workers' spans.
  expander.EmitStageSpans();
  if (CN_DCHECK_IS_ON() && expander.oracle() != nullptr) {
    expander.oracle()->CheckInvariants();
  }
  return sink.stop;
}

/// The deadline- and goal-driven pipelines: Source → Expand (Algorithm 1),
/// plus Prune with a goal (§4.2); serial or on the parallel frontier.
Result<GenerationResult> RunGraph(const ExplorationPlan& plan,
                                  const Catalog& catalog,
                                  const OfferingSchedule& schedule) {
  const ExplorationRequest& request = plan.request;
  COURSENAV_RETURN_IF_ERROR(ValidateRequest(catalog, schedule, request));
  internal::ExpandSpec spec;
  if (request.type == TaskType::kGoalDriven) {
    spec.goal = request.goal.get();
    spec.config = &request.config;
  }

  obs::ScopedSpan run_span(spec.goal != nullptr ? obs::kSpanGenerateGoal
                                                : obs::kSpanGenerateDeadline);
  std::optional<obs::ScopedSpan> construct_span;
  construct_span.emplace(obs::kSpanGraphConstruct);
  internal::ExplorationEngine engine(catalog, schedule, request.options,
                                     request.start.term, request.end_term);
  ExplorationStats& tallies = engine.tallies();
  GenerationResult result;
  LearningGraph& graph = result.graph;
  if (plan.parallel) graph.ConfigureShards(plan.workers);
  ConstructRoot(request, graph, tallies);
  construct_span->AddInt("catalog_courses", catalog.size());
  construct_span.reset();

  {
    obs::ScopedSpan expand_span(obs::kSpanExpandLoop);
    result.termination =
        plan.parallel ? internal::ExpandFrontierParallel(
                            engine, spec, request.options.num_threads, &graph)
                      : ExpandWorklist(engine, spec, graph);
    expand_span.AddInt("nodes_expanded", tallies.nodes_expanded);
    if (plan.parallel) expand_span.AddInt("threads", plan.workers);
  }

  if (CN_DCHECK_IS_ON()) CheckGraph(graph, catalog, schedule, request);
  result.stats = engine.StatsView();
  run_span.AddInt("nodes_created", result.stats.nodes_created);
  if (spec.goal != nullptr) {
    run_span.AddInt("goal_paths", result.stats.goal_paths);
  }
  return result;
}

/// A kept child that partial expansion deferred: its f and its selection
/// W. A re-pop derives the rest from the parent again: X_parent ∪ W and
/// the ranking's edge cost.
struct DeferredChild {
  double f;
  DynamicBitset selection;
};
// One per kept child a run has not materialized: over a million when the
// 6-semester Figure 4 cells stop.
static_assert(sizeof(DeferredChild) == 32);

/// A ranked frontier entry, ordered by (f, seq, node), where f = g + h is
/// the accumulated cost plus the ranking's admissible cost-to-go bound. A
/// status not yet expanded waits at its f under its parent's first-pop
/// sequence `seq`; an expanded status with deferred children waits at
/// their smallest f under its own. So every kept child is ordered by
/// (f, its parent's first-pop sequence, its enumeration index): the order
/// an eager search's creation ids give, as it creates a popped status's
/// children back to back, so the statuses pop in the same sequence. With a
/// consistent heuristic, goal statuses pop in non-decreasing true cost
/// (f == g at goals), preserving Lemma 2's exact top-k.
struct FrontierEntry {
  double f;
  uint32_t seq;
  /// The status not yet expanded, or `~id` for expanded status `id`. The
  /// latter never ties another entry on (f, seq): the only other entries
  /// under its sequence are its children, created at other f values.
  NodeId node;
};
// The heap holds an entry per unexpanded status and per expanded status
// with deferred children.
static_assert(sizeof(FrontierEntry) == 16);

struct FrontierCompare {
  /// std::priority_queue is a max-heap; invert for a min-heap.
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    if (a.f != b.f) return a.f > b.f;
    if (a.seq != b.seq) return a.seq > b.seq;
    return a.node > b.node;
  }
};

using RankedFrontier =
    std::priority_queue<FrontierEntry, std::vector<FrontierEntry>,
                        FrontierCompare>;

/// An expanded status's deferred children: rows `[next, end)` of the row
/// store, ordered by f (ties in enumeration order) from its first re-pop
/// on.
struct Deferral {
  uint32_t next = 0;
  uint32_t end = 0;
  bool sorted = false;
};

/// The ranked search as partial-expansion A* (Yoshizumi, Miura and Ishida,
/// AAAI 2000). A status popped at F for the first time is expanded once;
/// of its kept children, those with f <= F become statuses and the rest
/// are deferred as (f, W) rows, and the status goes back on the frontier
/// at their smallest f. Re-popped there, it materializes the rows with
/// that f and goes back at the next. A run thus creates only the children
/// it can still pop, and enumerates no status twice: the tallies count
/// first expansions, as an eager search's would. The graph is
/// parent-linked, because a re-popped status's children are not back to
/// back.
///
/// Also the sink of each first expansion: a kept child is costed by the
/// ranking, then materialized or deferred.
struct RankedSearch : SerialSink {
  const RankingFunction& ranking;
  const Goal& goal;
  /// Aggregate wall time inside the ranking function (EdgeCost + admissible
  /// bound), emitted as one "rank/evaluate" span per run.
  obs::StageAccumulator& rank_stage;
  RankedFrontier frontier{};
  // 256-row (8 KiB) chunks: a small ask pays for few rows it never fills.
  ChunkedVector<DeferredChild, 8> rows{};
  /// Bytes the rows hold, spilled selection words included.
  size_t row_bytes = 0;
  std::vector<Deferral> deferrals{};  // by first-pop sequence
  std::vector<std::pair<double, uint32_t>> sort_keys{};
  std::vector<DeferredChild> sort_rows{};
  // Of the status in its first expansion: the f it popped at, its
  // first-pop sequence and its deferred children's smallest f.
  double popped_f = 0.0;
  uint32_t seq = 0;
  double min_deferred_f = 0.0;

  /// The memory budget charges the graph plus the frontier, the rows and
  /// the deferral table.
  bool CheckBudget() {
    return SerialSink::CheckBudget(frontier.size() * sizeof(FrontierEntry) +
                                   row_bytes +
                                   deferrals.size() * sizeof(Deferral));
  }

  bool Add(const internal::CandidateBatch& batch, size_t row) {
    expander.UnpackChild(batch, row);
    double edge_cost;
    double child_cost;
    double f;
    {
      obs::StageSample sample(&rank_stage);
      edge_cost = ranking.EdgeCost(expander.child_selection(), node->term);
      child_cost = ranking.Combine(node->path_cost, edge_cost);
      f = child_cost + ranking.RemainingCostLowerBound(
                           expander.child_completed(), goal,
                           engine.options().max_courses_per_term);
    }
    if (f <= popped_f) {
      frontier.push({f, seq, AddChild(edge_cost, child_cost)});
      return true;
    }
    // 2^32 rows would hold 128 GiB.
    CN_CHECK_LT(rows.size(), size_t{UINT32_MAX});
    const DeferredChild& deferred =
        rows.push_back({f, expander.child_selection()});
    row_bytes += sizeof(DeferredChild) + deferred.selection.MemoryUsage();
    min_deferred_f = std::min(min_deferred_f, f);
    return true;
  }

  /// The first pop of `entry`'s status: expands it, and queues it again at
  /// its deferred children's smallest f.
  internal::Expansion Expand(const FrontierEntry& entry) {
    popped_f = entry.f;
    seq = static_cast<uint32_t>(deferrals.size());
    const auto first_row = static_cast<uint32_t>(rows.size());
    min_deferred_f = std::numeric_limits<double>::infinity();
    const internal::Expansion expansion = ExpandSerial(*this, entry.node);
    deferrals.push_back({first_row, static_cast<uint32_t>(rows.size())});
    if (rows.size() > first_row) {
      frontier.push({min_deferred_f, seq, ~entry.node});
    }
    return expansion;
  }

  /// A re-pop of an expanded status (`entry.node` < 0): materializes its
  /// deferred children with f <= entry.f (all have f >= it) in enumeration
  /// order, and queues the status again at its next deferred f. False once
  /// the budget stops the run.
  bool Replay(const FrontierEntry& entry) {
    const NodeId id = ~entry.node;
    Deferral& deferral = deferrals[entry.seq];
    if (!deferral.sorted) SortDeferred(deferral);
    LearningNode* status = graph.stable_node_ptr(id);
    ExplorationStats& tallies = engine.tallies();
    bool running = true;
    for (; deferral.next < deferral.end &&
           rows[deferral.next].f <= entry.f;
         ++deferral.next) {
      if (!CheckBudget()) {
        running = false;
        break;
      }
      const DeferredChild& row = rows[deferral.next];
      double edge_cost;
      double child_cost;
      {
        obs::StageSample sample(&rank_stage);
        edge_cost = ranking.EdgeCost(row.selection, status->term);
        child_cost = ranking.Combine(status->path_cost, edge_cost);
      }
      const NodeId child =
          graph
              .AddChildTo(/*shard=*/0, id, status, row.selection,
                          status->completed | row.selection, edge_cost,
                          child_cost)
              .id;
      tallies.nodes_created += 1;
      tallies.edges_created += 1;
      frontier.push({row.f, entry.seq, child});
    }
    if (running && deferral.next < deferral.end) {
      frontier.push({rows[deferral.next].f, entry.seq, entry.node});
    }
    return running;
  }

  /// Orders a status's deferred rows by f, ties in enumeration order. The
  /// (f, row) keys are sorted, and each row then moves twice at most.
  void SortDeferred(Deferral& deferral) {
    deferral.sorted = true;
    sort_keys.clear();
    for (uint32_t i = deferral.next; i < deferral.end; ++i) {
      sort_keys.emplace_back(rows[i].f, i);
    }
    if (std::is_sorted(sort_keys.begin(), sort_keys.end())) return;
    std::sort(sort_keys.begin(), sort_keys.end());
    sort_rows.clear();
    for (const auto& [f, row] : sort_keys) {
      sort_rows.push_back(std::move(rows[row]));
    }
    for (uint32_t i = deferral.next; i < deferral.end; ++i) {
      rows[i] = std::move(sort_rows[i - deferral.next]);
    }
  }
};

/// The ranked pipeline: Source → Expand → Prune → Rank → Limit (§4.3).
/// Always serial (see the planner's "ranked runs serial" note).
Result<RankedResult> RunRanked(const ExplorationPlan& plan,
                               const Catalog& catalog,
                               const OfferingSchedule& schedule) {
  const ExplorationRequest& request = plan.request;
  const Goal& goal = *request.goal;
  const int k = request.top_k;
  COURSENAV_RETURN_IF_ERROR(ValidateRequest(catalog, schedule, request));
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }

  obs::ScopedSpan run_span(obs::kSpanGenerateRanked);
  std::optional<obs::ScopedSpan> construct_span;
  construct_span.emplace(obs::kSpanGraphConstruct);
  internal::ExplorationEngine engine(catalog, schedule, request.options,
                                     request.start.term, request.end_term);
  internal::Expander expander(engine, {&goal, &request.config});
  ExplorationStats& tallies = engine.tallies();
  obs::StageAccumulator rank_stage;

  RankedResult result;
  LearningGraph graph = LearningGraph::ParentLinked();
  NodeId root = ConstructRoot(request, graph, tallies);
  construct_span.reset();

  {
    obs::ScopedSpan expand_span(obs::kSpanExpandLoop);
    RankedSearch search{
        {engine, expander, graph}, *request.ranking, goal, rank_stage};
    double root_f;
    {
      obs::StageSample sample(&rank_stage);
      root_f = request.ranking->RemainingCostLowerBound(
          request.start.completed, goal, request.options.max_courses_per_term);
    }
    search.frontier.push({root_f, /*seq=*/0, root});

    while (!search.frontier.empty() &&
           static_cast<int>(result.paths.size()) < k && search.CheckBudget()) {
      const FrontierEntry entry = search.frontier.top();
      search.frontier.pop();
      if (entry.node < 0) {
        if (!search.Replay(entry)) break;
        continue;
      }
      const internal::Expansion expansion = search.Expand(entry);
      if (expansion == internal::Expansion::kStopped) break;
      if (expansion == internal::Expansion::kGoal) {
        // Popping in cost order makes each goal the next-cheapest path.
        result.paths.push_back(LearningPath::FromGraph(graph, entry.node));
      }
    }
    result.termination = search.stop;
    // Inside expand/loop, like the parallel workers' spans.
    rank_stage.Emit(obs::kSpanRankEvaluate);
    expander.EmitStageSpans();
    expand_span.AddInt("nodes_expanded", tallies.nodes_expanded);
  }

  if (CN_DCHECK_IS_ON()) {
    CheckGraph(graph, catalog, schedule, request);
    expander.oracle()->CheckInvariants();
  }
  result.stats = engine.StatsView();
  run_span.AddInt("nodes_created", result.stats.nodes_created);
  run_span.AddInt("paths_returned",
                  static_cast<int64_t>(result.paths.size()));
  return result;
}

/// The Filter operator: declarative post-rank path filters. Runs after
/// Limit — filters cut the top-k answer down rather than backfilling it,
/// matching the CLI's long-standing semantics.
void ApplyFilterStage(const ExplorationRequest& request,
                      const Catalog& catalog, ExplorationResponse& response) {
  if (!request.filters.active() || !response.ranked.has_value()) return;
  std::vector<std::shared_ptr<const PathFilter>> parts;
  if (request.filters.max_term_hours > 0.0) {
    parts.push_back(std::make_shared<MaxTermWorkloadFilter>(
        &catalog, request.filters.max_term_hours));
  }
  if (request.filters.max_skips >= 0) {
    parts.push_back(
        std::make_shared<MaxSkipsFilter>(request.filters.max_skips));
  }
  AllOfFilter filter(std::move(parts));
  response.paths_before_filters =
      static_cast<int64_t>(response.ranked->paths.size());
  response.filter_description = filter.Describe();
  response.ranked->paths =
      FilterPaths(std::move(response.ranked->paths), filter);
}

}  // namespace

Result<ExplorationResponse> Executor::Run(const ExplorationPlan& plan) const {
  const ExplorationRequest& request = plan.request;
  ExplorationResponse response;
  switch (request.type) {
    case TaskType::kDeadlineDriven:
    case TaskType::kGoalDriven: {
      // Re-checked here so hand-built plans fail the same way lowered ones
      // do.
      if (request.type == TaskType::kGoalDriven && request.goal == nullptr) {
        return Status::InvalidArgument(
            "goal-driven exploration requires a goal");
      }
      COURSENAV_ASSIGN_OR_RETURN(GenerationResult generation,
                                 RunGraph(plan, *catalog_, *schedule_));
      response.generation = std::move(generation);
      return response;
    }
    case TaskType::kRanked: {
      if (request.goal == nullptr) {
        return Status::InvalidArgument("ranked exploration requires a goal");
      }
      if (request.ranking == nullptr) {
        return Status::InvalidArgument(
            "ranked exploration requires a ranking function");
      }
      COURSENAV_ASSIGN_OR_RETURN(RankedResult ranked,
                                 RunRanked(plan, *catalog_, *schedule_));
      response.ranked = std::move(ranked);
      ApplyFilterStage(request, *catalog_, response);
      return response;
    }
  }
  return Status::InvalidArgument("unknown exploration task type");
}

Result<ExplorationResponse> Execute(const Catalog& catalog,
                                    const OfferingSchedule& schedule,
                                    const ExplorationRequest& request) {
  Result<ExplorationPlan> lowered = [&request] {
    obs::ScopedSpan span(obs::kSpanPlanLower);
    return Planner::Lower(request);
  }();
  COURSENAV_RETURN_IF_ERROR(lowered.status());
  return Executor(&catalog, &schedule).Run(*lowered);
}

}  // namespace coursenav::plan
