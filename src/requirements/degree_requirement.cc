#include "requirements/degree_requirement.h"

#include "flow/flow_network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace coursenav {

DegreeRequirement::Builder& DegreeRequirement::Builder::AddGroup(
    std::string name, const std::vector<std::string>& codes,
    int required_count) {
  Result<DynamicBitset> courses = catalog_->CourseSetFromCodes(codes);
  if (!courses.ok()) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::InvalidArgument(
          "group '" + name + "': " + courses.status().message());
    }
    return *this;
  }
  return AddGroupFromIds(std::move(name), std::move(courses).value(),
                         required_count);
}

DegreeRequirement::Builder& DegreeRequirement::Builder::AddGroupFromIds(
    std::string name, DynamicBitset courses, int required_count) {
  groups_.push_back(
      {std::move(name), std::move(courses), required_count});
  return *this;
}

Result<std::shared_ptr<const DegreeRequirement>>
DegreeRequirement::Builder::Build(FlowAlgorithm algorithm) {
  if (!deferred_error_.ok()) return deferred_error_;
  if (groups_.empty()) {
    return Status::InvalidArgument(
        "degree requirement needs at least one group");
  }
  for (const RequirementGroup& group : groups_) {
    if (group.required_count <= 0) {
      return Status::InvalidArgument("group '" + group.name +
                                     "' has non-positive required count");
    }
    if (group.courses.universe_size() != catalog_->size()) {
      return Status::InvalidArgument("group '" + group.name +
                                     "' was built for a different catalog");
    }
    if (group.required_count > group.courses.count()) {
      return Status::InvalidArgument(StrFormat(
          "group '%s' requires %d courses but only lists %d",
          group.name.c_str(), group.required_count, group.courses.count()));
    }
  }
  return std::make_shared<const DegreeRequirement>(
      Badge(), std::move(groups_), catalog_->size(), algorithm);
}

DegreeRequirement::DegreeRequirement(Badge /*badge*/,
                                     std::vector<RequirementGroup> groups,
                                     int universe_size,
                                     FlowAlgorithm algorithm)
    : groups_(std::move(groups)),
      relevant_courses_(universe_size),
      universe_size_(universe_size),
      total_slots_(0),
      algorithm_(algorithm),
      groups_disjoint_(true) {
  for (const RequirementGroup& group : groups_) {
    if (relevant_courses_.Intersects(group.courses)) {
      groups_disjoint_ = false;
    }
    relevant_courses_ |= group.courses;
    total_slots_ += group.required_count;
  }
}

int DegreeRequirement::CreditedSlots(const DynamicBitset& completed) const {
  // Disjoint groups need no flow: credit per group is independent. This is
  // the hot path for the core/electives majors the generators hammer.
  if (groups_disjoint_) {
    int credited = 0;
    for (const RequirementGroup& group : groups_) {
      DynamicBitset in_group = completed;
      in_group &= group.courses;
      int count = in_group.count();
      credited += count < group.required_count ? count : group.required_count;
    }
    return credited;
  }

  // Only completed courses inside some group matter; intersect first so the
  // network stays small even for large completed sets.
  DynamicBitset relevant = completed;
  relevant &= relevant_courses_;
  std::vector<int> course_ids = relevant.ToIndices();
  if (course_ids.empty()) return 0;

  // Nodes: 0 = source, [1, n] courses, [n+1, n+g] groups, n+g+1 = sink.
  int n = static_cast<int>(course_ids.size());
  int g = static_cast<int>(groups_.size());
  flow::FlowNetwork network(n + g + 2);
  int source = 0;
  int sink = n + g + 1;
  for (int i = 0; i < n; ++i) {
    network.AddEdge(source, 1 + i, 1);
  }
  for (int j = 0; j < g; ++j) {
    network.AddEdge(1 + n + j, sink, groups_[static_cast<size_t>(j)]
                                         .required_count);
    for (int i = 0; i < n; ++i) {
      if (groups_[static_cast<size_t>(j)].courses.test(
              course_ids[static_cast<size_t>(i)])) {
        network.AddEdge(1 + i, 1 + n + j, 1);
      }
    }
  }
  static obs::Counter* flow_solves =
      obs::GlobalMetrics().GetCounter(obs::kMetricFlowSolves);
  flow_solves->Increment();
  obs::ScopedSpan span(obs::kSpanFlowCheck);
  span.AddInt("courses", n);
  span.AddInt("groups", g);
  int64_t flow = algorithm_ == FlowAlgorithm::kFordFulkerson
                     ? flow::EdmondsKarpMaxFlow(&network, source, sink)
                     : flow::DinicMaxFlow(&network, source, sink);
  span.AddInt("max_flow", flow);
  return static_cast<int>(flow);
}

DegreeAudit DegreeRequirement::Audit(const DynamicBitset& completed) const {
  DegreeAudit audit;
  audit.groups.reserve(groups_.size());

  // One optimal allocation, via the flow formulation regardless of
  // disjointness (the audit is not a hot path and the flow exposes the
  // per-course assignment).
  DynamicBitset relevant = completed;
  relevant &= relevant_courses_;
  std::vector<int> course_ids = relevant.ToIndices();
  int n = static_cast<int>(course_ids.size());
  int g = static_cast<int>(groups_.size());

  flow::FlowNetwork network(n + g + 2);
  int source = 0;
  int sink = n + g + 1;
  for (int i = 0; i < n; ++i) network.AddEdge(source, 1 + i, 1);
  // edge id of (course i -> group j), or -1.
  std::vector<std::vector<int>> course_group_edges(
      static_cast<size_t>(n), std::vector<int>(static_cast<size_t>(g), -1));
  for (int j = 0; j < g; ++j) {
    network.AddEdge(1 + n + j, sink,
                    groups_[static_cast<size_t>(j)].required_count);
    for (int i = 0; i < n; ++i) {
      if (groups_[static_cast<size_t>(j)].courses.test(
              course_ids[static_cast<size_t>(i)])) {
        course_group_edges[static_cast<size_t>(i)][static_cast<size_t>(j)] =
            network.AddEdge(1 + i, 1 + n + j, 1);
      }
    }
  }
  int credited = static_cast<int>(
      algorithm_ == FlowAlgorithm::kFordFulkerson
          ? flow::EdmondsKarpMaxFlow(&network, source, sink)
          : flow::DinicMaxFlow(&network, source, sink));

  for (int j = 0; j < g; ++j) {
    const RequirementGroup& group = groups_[static_cast<size_t>(j)];
    GroupAudit line;
    line.group_name = group.name;
    line.required_count = group.required_count;
    line.credited = DynamicBitset(universe_size_);
    for (int i = 0; i < n; ++i) {
      int edge = course_group_edges[static_cast<size_t>(i)]
                                   [static_cast<size_t>(j)];
      if (edge >= 0 && network.FlowOn(edge) == 1) {
        line.credited.set(course_ids[static_cast<size_t>(i)]);
      }
    }
    line.remaining_candidates = group.courses;
    line.remaining_candidates.Subtract(completed);
    audit.groups.push_back(std::move(line));
  }
  audit.courses_missing = total_slots_ - credited;
  audit.satisfied = audit.courses_missing == 0;
  return audit;
}

std::string DegreeAudit::ToString(const Catalog& catalog) const {
  std::string out;
  for (const GroupAudit& group : groups) {
    out += StrFormat("%s: %d/%d credited %s", group.group_name.c_str(),
                     group.credited_count(), group.required_count,
                     catalog.CourseSetToString(group.credited).c_str());
    if (group.missing_count() > 0) {
      out += StrFormat(", missing %d (candidates %s)", group.missing_count(),
                       catalog.CourseSetToString(group.remaining_candidates)
                           .c_str());
    }
    out += "\n";
  }
  out += satisfied ? "requirement satisfied\n"
                   : StrFormat("%d course(s) still needed\n",
                               courses_missing);
  return out;
}

bool DegreeRequirement::IsSatisfied(const DynamicBitset& completed) const {
  return CreditedSlots(completed) == total_slots_;
}

int DegreeRequirement::MinCoursesRemaining(
    const DynamicBitset& completed) const {
  // Each additional course fills at most one slot, so this is a valid lower
  // bound; it is exact whenever enough distinct eligible courses remain.
  return total_slots_ - CreditedSlots(completed);
}

bool DegreeRequirement::AchievableWith(const DynamicBitset& completed,
                                       const DynamicBitset& available) const {
  DynamicBitset reachable = completed;
  reachable |= available;
  return IsSatisfied(reachable);
}

std::string DegreeRequirement::Describe() const {
  std::string out = "degree requirement (";
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i != 0) out += ", ";
    out += StrFormat("%d of %d %s", groups_[i].required_count,
                     groups_[i].courses.count(), groups_[i].name.c_str());
  }
  out += ")";
  return out;
}

}  // namespace coursenav
