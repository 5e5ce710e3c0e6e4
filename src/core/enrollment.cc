#include "core/enrollment.h"

namespace coursenav {

Status ValidateExplorationInputs(const Catalog& catalog,
                                 const OfferingSchedule& schedule,
                                 const EnrollmentStatus& start,
                                 const ExplorationOptions& options) {
  if (!catalog.finalized()) {
    return Status::FailedPrecondition("catalog must be finalized");
  }
  if (schedule.num_courses() != catalog.size()) {
    return Status::InvalidArgument(
        "schedule was built for a different catalog size");
  }
  if (start.completed.universe_size() != catalog.size()) {
    return Status::InvalidArgument(
        "completed-course set was built for a different catalog size");
  }
  if (options.max_courses_per_term < 1) {
    return Status::InvalidArgument("max_courses_per_term must be >= 1");
  }
  if (options.avoid_courses.has_value() &&
      options.avoid_courses->universe_size() != catalog.size()) {
    return Status::InvalidArgument(
        "avoid-course set was built for a different catalog size");
  }
  return Status::OK();
}

}  // namespace coursenav
