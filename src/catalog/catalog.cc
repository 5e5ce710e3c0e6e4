#include "catalog/catalog.h"

#include <set>

#include "catalog/schedule.h"
#include "util/string_util.h"

namespace coursenav {

Result<CourseId> Catalog::AddCourse(Course course) {
  if (finalized_) {
    return Status::FailedPrecondition("catalog is finalized");
  }
  if (course.code.empty()) {
    return Status::InvalidArgument("course code must not be empty");
  }
  if (course.workload_hours < 0) {
    return Status::InvalidArgument("course '" + course.code +
                                   "' has negative workload");
  }
  if (code_to_id_.contains(course.code)) {
    return Status::InvalidArgument("duplicate course code '" + course.code +
                                   "'");
  }
  CourseId id = static_cast<CourseId>(courses_.size());
  code_to_id_.emplace(course.code, id);
  courses_.push_back(std::move(course));
  return id;
}

Result<CourseId> Catalog::FindByCode(std::string_view code) const {
  auto it = code_to_id_.find(std::string(code));
  if (it == code_to_id_.end()) {
    return Status::NotFound("unknown course code '" + std::string(code) +
                            "'");
  }
  return it->second;
}

expr::VarResolver Catalog::MakeResolver() const {
  return [this](std::string_view code) -> Result<int> {
    COURSENAV_ASSIGN_OR_RETURN(CourseId id, FindByCode(code));
    return static_cast<int>(id);
  };
}

Status Catalog::CheckAcyclic() const {
  // Iterative three-color DFS over the "references" graph.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(courses_.size(), Color::kWhite);
  std::vector<std::vector<CourseId>> deps(courses_.size());
  for (size_t i = 0; i < courses_.size(); ++i) {
    std::set<std::string> vars;
    courses_[i].prerequisites.CollectVars(&vars);
    for (const std::string& var : vars) {
      auto it = code_to_id_.find(var);
      if (it != code_to_id_.end()) deps[i].push_back(it->second);
    }
  }
  for (size_t root = 0; root < courses_.size(); ++root) {
    if (color[root] != Color::kWhite) continue;
    // Stack of (node, next dependency index to visit).
    std::vector<std::pair<CourseId, size_t>> stack;
    stack.emplace_back(static_cast<CourseId>(root), 0);
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& node_deps = deps[static_cast<size_t>(node)];
      if (next < node_deps.size()) {
        CourseId dep = node_deps[next++];
        if (color[static_cast<size_t>(dep)] == Color::kGray) {
          return Status::FailedPrecondition(
              "prerequisite cycle involving course '" +
              courses_[static_cast<size_t>(dep)].code + "'");
        }
        if (color[static_cast<size_t>(dep)] == Color::kWhite) {
          color[static_cast<size_t>(dep)] = Color::kGray;
          stack.emplace_back(dep, 0);
        }
      } else {
        color[static_cast<size_t>(node)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return Status::OK();
}

Status Catalog::Finalize() {
  if (finalized_) return Status::OK();

  expr::VarResolver resolver = MakeResolver();
  std::vector<expr::CompiledExpr> compiled;
  compiled.reserve(courses_.size());
  for (const Course& course : courses_) {
    Result<expr::CompiledExpr> program =
        expr::CompiledExpr::Compile(course.prerequisites, resolver);
    if (!program.ok()) {
      return Status::FailedPrecondition(
          "course '" + course.code +
          "': " + program.status().message());
    }
    compiled.push_back(std::move(program).value());
  }

  COURSENAV_RETURN_IF_ERROR(CheckAcyclic());

  compiled_prereqs_ = std::move(compiled);
  finalized_ = true;
  return Status::OK();
}

Result<DynamicBitset> Catalog::CourseSetFromCodes(
    const std::vector<std::string>& codes) const {
  DynamicBitset out = NewCourseSet();
  for (const std::string& code : codes) {
    COURSENAV_ASSIGN_OR_RETURN(CourseId id, FindByCode(code));
    out.set(id);
  }
  return out;
}

std::string Catalog::CourseSetToString(const DynamicBitset& set) const {
  std::string out = "{";
  bool first = true;
  set.ForEach([&](int id) {
    if (!first) out += ", ";
    out += courses_[static_cast<size_t>(id)].code;
    first = false;
  });
  out += "}";
  return out;
}

DynamicBitset ComputeOptions(const Catalog& catalog,
                             const DynamicBitset& offered,
                             const DynamicBitset& completed,
                             const std::optional<DynamicBitset>& avoid) {
  // Candidates: offered this term, not yet completed, not avoided.
  DynamicBitset candidates = offered;
  candidates.Subtract(completed);
  if (avoid.has_value()) candidates.Subtract(*avoid);
  // Keep only candidates whose prerequisite holds for `completed`.
  DynamicBitset eligible(catalog.size());
  candidates.ForEach([&](int id) {
    const expr::CompiledExpr& prereq =
        catalog.compiled_prereq(static_cast<CourseId>(id));
    if (prereq.IsAlwaysTrue() || prereq.Eval(completed)) eligible.set(id);
  });
  return eligible;
}

DynamicBitset RecordedOptions(const Catalog& catalog,
                              const OfferingSchedule& schedule, Term term,
                              const DynamicBitset& completed,
                              const std::optional<DynamicBitset>& avoid) {
  // A one-term range reads the recorded set; OfferedIn is the churn seam.
  return ComputeOptions(catalog, schedule.OfferedInRange(term, term),
                        completed, avoid);
}

}  // namespace coursenav
