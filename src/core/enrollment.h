#ifndef COURSENAV_CORE_ENROLLMENT_H_
#define COURSENAV_CORE_ENROLLMENT_H_

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/options.h"
#include "util/bitset.h"
#include "util/result.h"

namespace coursenav {

/// A student's enrollment status at a point in time (Section 2): the
/// current semester `s` and the set of completed courses `X`. The option
/// set `Y` is derived (`ComputeOptions`, catalog/catalog.h) rather than
/// stored.
struct EnrollmentStatus {
  Term term;
  DynamicBitset completed;
};

/// Validates a (catalog, schedule, start, options) tuple shared by all
/// generators: the catalog must be finalized, the completed set sized to
/// it, `m >= 1`, and the avoid set (if any) sized to the catalog.
Status ValidateExplorationInputs(const Catalog& catalog,
                                 const OfferingSchedule& schedule,
                                 const EnrollmentStatus& start,
                                 const ExplorationOptions& options);

}  // namespace coursenav

#endif  // COURSENAV_CORE_ENROLLMENT_H_
