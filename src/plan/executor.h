#ifndef COURSENAV_PLAN_EXECUTOR_H_
#define COURSENAV_PLAN_EXECUTOR_H_

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "plan/planner.h"
#include "plan/request.h"
#include "util/result.h"

namespace coursenav::plan {

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
  /// an error (Table 2 semantics).
  Result<ExplorationResponse> Run(const ExplorationPlan& plan) const;

 private:
  const Catalog* catalog_;
  const OfferingSchedule* schedule_;
};

/// One-call convenience: Planner::Lower (under a "plan/lower" span) +
/// Executor::Run.
Result<ExplorationResponse> Execute(const Catalog& catalog,
                                    const OfferingSchedule& schedule,
                                    const ExplorationRequest& request);

}  // namespace coursenav::plan

#endif  // COURSENAV_PLAN_EXECUTOR_H_
