#ifndef COURSENAV_CORE_COUNTING_H_
#define COURSENAV_CORE_COUNTING_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/enrollment.h"
#include "core/options.h"
#include "core/pruning.h"
#include "requirements/goal.h"
#include "util/result.h"

namespace coursenav {

/// Output of a term-layered path count.
struct CountingResult {
  /// Total learning paths (graph leaves), saturating at UINT64_MAX.
  uint64_t total_paths = 0;
  /// Paths ending in a goal-satisfying status (for deadline-driven counts,
  /// statuses at the end semester).
  uint64_t goal_paths = 0;
  /// True if either count overflowed uint64 and saturated.
  bool saturated = false;
  /// Distinct (semester, completed-set) statuses expanded — the sum of the
  /// layer sizes, i.e. the size of the collapsed status DAG.
  int64_t distinct_statuses = 0;
  double runtime_seconds = 0.0;
};

/// Counts deadline-driven learning paths without materializing the graph.
///
/// The expansion tree of Algorithm 1 revisits identical enrollment statuses
/// exponentially often: two different selection orders reaching the same
/// `(s_i, X_i)` root identical subtrees. Every edge advances one semester,
/// so the distinct statuses fall into one layer per semester. The count is
/// one forward pass over those layers: each semester is a flat hash table
/// from a status's completed set to the number of paths reaching it, each
/// status is expanded once, and its kept children add its path count to the
/// next semester's table while leaves retire theirs into the totals. Only
/// two layers are live at a time, so peak memory is the two largest
/// adjacent layers, not every status seen. This is how the benches report
/// the Table 2 cells whose graphs the paper (and we, deliberately, under a
/// memory budget) could not materialize.
///
/// The counted set is exactly the leaf set `GenerateDeadlineDrivenPaths`
/// would materialize with the same inputs (the property tests assert
/// equality).
///
/// Budgets fail the count (counts are not meaningful when partial):
/// `options.limits.max_nodes` caps the distinct statuses exactly (a count
/// fails with ResourceExhausted if and only if it has more), and
/// `max_memory_bytes` caps the bytes of the two live layer tables, both
/// with ResourceExhausted; `max_seconds` bounds wall-clock
/// (DeadlineExceeded) and the options' token cancels (Cancelled). Budgets
/// and cancellation are checked once per expanded status.
Result<CountingResult> CountDeadlineDrivenPaths(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const EnrollmentStatus& start, Term end_term,
    const ExplorationOptions& options);

/// Counts goal-driven learning paths under the same pruning configuration
/// as `GenerateGoalDrivenPaths`; the counted set matches its leaf set.
Result<CountingResult> CountGoalDrivenPaths(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const EnrollmentStatus& start, Term end_term, const Goal& goal,
    const ExplorationOptions& options, const GoalDrivenConfig& config = {});

}  // namespace coursenav

#endif  // COURSENAV_CORE_COUNTING_H_
