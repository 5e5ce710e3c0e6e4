#ifndef COURSENAV_CATALOG_CATALOG_H_
#define COURSENAV_CATALOG_CATALOG_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/course.h"
#include "catalog/term.h"
#include "expr/compiled_expr.h"
#include "util/bitset.h"
#include "util/result.h"

namespace coursenav {

class OfferingSchedule;

/// The set of courses `C` offered to students, with interned ids and
/// compiled prerequisite programs.
///
/// Usage: add courses, then call `Finalize()` once. Finalization validates
/// the catalog (unique codes were enforced at insertion; prerequisite
/// references must resolve; the prerequisite dependency graph must be
/// acyclic) and compiles each `Q_i` for bitset evaluation. Generators only
/// accept finalized catalogs.
class Catalog {
 public:
  Catalog() = default;

  // Catalogs are heavyweight and referenced by pointer everywhere; moving is
  // allowed for construction pipelines, copying is not.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Interns `course`. Fails if the code is empty, duplicated, or the
  /// workload is negative, or the catalog is already finalized.
  Result<CourseId> AddCourse(Course course);

  /// Validates and compiles. Idempotent on success.
  Status Finalize();

  bool finalized() const { return finalized_; }

  /// Number of interned courses.
  int size() const { return static_cast<int>(courses_.size()); }

  /// The course record for `id`; `id` must be valid.
  const Course& course(CourseId id) const {
    return courses_[static_cast<size_t>(id)];
  }

  /// Looks up a course by registrar code.
  Result<CourseId> FindByCode(std::string_view code) const;

  /// Compiled prerequisite program for `id`; catalog must be finalized.
  const expr::CompiledExpr& compiled_prereq(CourseId id) const {
    return compiled_prereqs_[static_cast<size_t>(id)];
  }

  /// A resolver mapping course codes to ids, for compiling goal/constraint
  /// expressions against this catalog.
  expr::VarResolver MakeResolver() const;

  /// An empty course set sized to this catalog.
  DynamicBitset NewCourseSet() const { return DynamicBitset(size()); }

  /// Builds a course set from codes; fails on any unknown code.
  Result<DynamicBitset> CourseSetFromCodes(
      const std::vector<std::string>& codes) const;

  /// Renders a course set as sorted codes, e.g. "{COSI11A, COSI21A}".
  std::string CourseSetToString(const DynamicBitset& set) const;

 private:
  /// Rejects cycles in the prerequisite dependency graph (course -> each
  /// course referenced by its `Q_i`). A cyclic catalog makes no semester
  /// reachable and is always registrar data corruption.
  Status CheckAcyclic() const;

  bool finalized_ = false;
  std::vector<Course> courses_;
  std::vector<expr::CompiledExpr> compiled_prereqs_;
  std::unordered_map<std::string, CourseId> code_to_id_;
};

/// The option set `Y = {c_j ∈ C − X | Q_j(X) == true, s ∈ S_j}` of the
/// status `(s, X)` (Section 2), minus the avoided courses: the courses of
/// `offered` (those running in `s`) that are not in `completed` or `avoid`
/// and whose prerequisite holds for `completed`. `catalog` must be
/// finalized.
///
/// Y is a pure function of the semester and the completed set, so no
/// status stores it. The expansion passes the schedule's live
/// `OfferedIn(s)` read, which the `schedule/churn` fault seam covers;
/// readers of a finished graph call `RecordedOptions` instead.
DynamicBitset ComputeOptions(const Catalog& catalog,
                             const DynamicBitset& offered,
                             const DynamicBitset& completed,
                             const std::optional<DynamicBitset>& avoid);

/// `ComputeOptions` over the offerings `schedule` records for `term`, read
/// without drawing a `schedule/churn` decision: what exports and checks of
/// a finished graph print or test. Churn only ever withdraws a course, so
/// this set contains every churned read the run saw, and it does not
/// depend on whether a fault injector is armed.
DynamicBitset RecordedOptions(const Catalog& catalog,
                              const OfferingSchedule& schedule, Term term,
                              const DynamicBitset& completed,
                              const std::optional<DynamicBitset>& avoid);

}  // namespace coursenav

#endif  // COURSENAV_CATALOG_CATALOG_H_
