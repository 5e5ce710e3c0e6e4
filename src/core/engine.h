#ifndef COURSENAV_CORE_ENGINE_H_
#define COURSENAV_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/options.h"
#include "core/stats.h"
#include "graph/learning_graph.h"
#include "util/bitset.h"
#include "util/cancellation.h"
#include "util/result.h"
#include "util/status.h"

namespace coursenav::internal {

/// The graph-size verdicts of a budget check, in order: a simulated
/// allocation failure (fault injection), then the node and memory budgets
/// of `limits` against `nodes` materialized nodes holding `memory_bytes`.
/// OK, or ResourceExhausted naming the first reached. The serial engine
/// and the parallel workers' sentinel both decide and word them here.
Status CheckGraphLimits(const ExplorationLimits& limits,
                        bool allocation_failed, int64_t nodes,
                        size_t memory_bytes);

/// Conservative pre-check for batched expansion: true when materializing
/// up to `staged` more nodes on top of `nodes` could reach the node budget.
/// Drivers staging candidates hand them over when this fires, then run the
/// exact check, which therefore sees precisely the node count the
/// unbatched loop would have seen.
inline bool NearNodeBudget(const ExplorationLimits& limits, int64_t nodes,
                           size_t staged) {
  return limits.max_nodes > 0 &&
         nodes + static_cast<int64_t>(staged) >= limits.max_nodes;
}

/// Shared machinery of the three path generators: the availability suffix
/// cache, the skip-edge rule, and budget enforcement. Internal — not part
/// of the public API.
class ExplorationEngine {
 public:
  /// `catalog`, `schedule`, and `options` must outlive the engine.
  /// Precomputes, for every semester in `[start, end)`, the union of
  /// offerings from that semester through `end - 1` (minus avoided
  /// courses): one bitset lookup replaces a per-node schedule scan in both
  /// the skip-edge rule and the availability pruning strategy.
  ExplorationEngine(const Catalog& catalog, const OfferingSchedule& schedule,
                    const ExplorationOptions& options, Term start, Term end);

  /// Destruction adds the run's tallies to the process-global registry
  /// (plus a runs counter, a runtime histogram observation, and the
  /// peak-nodes gauge), so every run is accounted exactly once — including
  /// early-error exits.
  ~ExplorationEngine();

  /// Courses offered (and not avoided) in any semester of `[term, end-1]`.
  /// Returns the empty set for terms at or beyond `end`.
  const DynamicBitset& AvailableFrom(Term term) const;

  /// The skip-edge rule (paper Figure 3): from a status at `term`, an empty
  /// selection advances time only if some not-yet-completed course is still
  /// offered in a *later* enrollable semester `[term+1, end-1]`.
  bool FutureCourseExists(const DynamicBitset& completed, Term term) const;

  /// OK while within budget; ResourceExhausted / DeadlineExceeded once a
  /// limit in `options.limits` is hit, Cancelled once the options' token
  /// fires. The memory budget charges `graph.MemoryUsage()` plus
  /// `search_bytes`, what the run's search holds beside the graph (the
  /// ranked search's frontier and deferred children). The deadline and
  /// cancel flag are polled through the engine's DeadlineBudget (amortized
  /// clock reads), so this is cheap enough to call per enumerated
  /// selection. Verdicts are sticky.
  Status CheckBudget(const LearningGraph& graph, size_t search_bytes = 0);

  /// Wall-clock seconds since the engine was constructed (the generation
  /// run's runtime, for stats reporting).
  double ElapsedSeconds() const { return budget_.ElapsedSeconds(); }

  DeadlineBudget& budget() { return budget_; }

  /// The run's tally sheet: generators, the pruning oracle and the
  /// counting driver bump its plain fields (a run is single-threaded, so no
  /// atomics on the hot path); the destructor publishes it.
  ExplorationStats& tallies() const { return tallies_; }

  /// The run's tallies so far, with its runtime.
  ExplorationStats StatsView() const {
    ExplorationStats stats = tallies_;
    stats.runtime_seconds = ElapsedSeconds();
    return stats;
  }

  const Catalog& catalog() const { return catalog_; }
  const OfferingSchedule& schedule() const { return schedule_; }
  const ExplorationOptions& options() const { return options_; }
  Term start() const { return start_; }
  Term end() const { return end_; }

 private:
  const Catalog& catalog_;
  const OfferingSchedule& schedule_;
  const ExplorationOptions& options_;
  mutable ExplorationStats tallies_;
  DeadlineBudget budget_;
  Term start_;
  Term end_;
  /// available_from_[k] = offerings in [start+k, end-1] minus avoid.
  std::vector<DynamicBitset> available_from_;
  DynamicBitset empty_set_;
};

}  // namespace coursenav::internal

#endif  // COURSENAV_CORE_ENGINE_H_
