#ifndef COURSENAV_PLAN_EXECUTOR_H_
#define COURSENAV_PLAN_EXECUTOR_H_

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "core/pruning.h"
#include "plan/planner.h"
#include "plan/request.h"
#include "util/result.h"

namespace coursenav::plan {

/// Optional process-level machinery a caller threads into one execution.
/// Everything here is borrowed and must outlive the Run() call; the
/// default-constructed value reproduces the historical self-contained run.
struct ExecHooks {
  /// Availability-pruning L3 shared across runs: handed to the serial
  /// pruning oracle (in place of no L2) and to every parallel worker's
  /// oracle (in place of the run-local L2). Provided by the epoch-keyed
  /// request cache (src/cache/), which guarantees the tier only ever holds
  /// verdicts computed against the same catalog epoch and goal. Null runs
  /// with per-run caching exactly as before.
  internal::SharedAvailabilityCache* shared_availability = nullptr;
};

/// Runs lowered plans over the shared exploration machinery
/// (`internal::ExplorationEngine` + the parallel frontier engine). The one
/// place that owns the pipeline prologue (input validation, spans, engine
/// and root construction), the budget sentinels, and the three expansion
/// loops the generators used to fork.
///
/// Determinism contract: for any plan, the produced graphs and path order
/// are byte-identical to the pre-pipeline generators', serial and
/// parallel (enforced by the golden-equivalence suite, ctest label
/// `plan`).
class Executor {
 public:
  /// `catalog` and `schedule` are borrowed and must outlive the executor.
  Executor(const Catalog* catalog, const OfferingSchedule* schedule)
      : catalog_(catalog), schedule_(schedule) {}

  /// Executes `plan` and returns the response matching its task type.
  /// Budget exhaustion is reported via the payload's `termination`, not as
  /// an error (Table 2 semantics). `hooks` thread caller-provided process
  /// machinery (shared cache tiers) into the run; they never change what is
  /// computed — a hooked run's output is byte-identical to an unhooked one
  /// — only what gets recomputed.
  Result<ExplorationResponse> Run(const ExplorationPlan& plan,
                                  const ExecHooks& hooks = {}) const;

 private:
  const Catalog* catalog_;
  const OfferingSchedule* schedule_;
};

/// One-call convenience: Planner::Lower (under a "plan/lower" span) +
/// Executor::Run.
Result<ExplorationResponse> Execute(const Catalog& catalog,
                                    const OfferingSchedule& schedule,
                                    const ExplorationRequest& request,
                                    const ExecHooks& hooks = {});

}  // namespace coursenav::plan

#endif  // COURSENAV_PLAN_EXECUTOR_H_
