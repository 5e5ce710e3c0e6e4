#include "graph/path.h"

#include <algorithm>

#include "util/string_util.h"

namespace coursenav {

LearningPath LearningPath::FromGraph(const LearningGraph& graph, NodeId leaf) {
  // Walk parents to the root, then reverse. Each non-root node on the way
  // holds its inbound edge.
  std::vector<const LearningNode*> chain;
  const LearningNode* cursor = &graph.node(leaf);
  while (cursor->parent != kInvalidNodeId) {
    chain.push_back(cursor);
    cursor = &graph.node(cursor->parent);
  }
  std::reverse(chain.begin(), chain.end());

  LearningPath path(cursor->term, cursor->completed);
  for (const LearningNode* step : chain) {
    path.AppendStep(graph.node(step->parent).term, step->selection);
  }
  path.set_cost(graph.node(leaf).path_cost);
  return path;
}

void LearningPath::AppendStep(Term term, DynamicBitset selection) {
  steps_.push_back({term, std::move(selection)});
}

DynamicBitset LearningPath::FinalCompleted() const {
  DynamicBitset completed = start_completed_;
  for (const PathStep& step : steps_) completed |= step.selection;
  return completed;
}

Status LearningPath::Validate(const Catalog& catalog,
                              const OfferingSchedule& schedule) const {
  DynamicBitset completed = start_completed_;
  Term expected = start_term_;
  for (const PathStep& step : steps_) {
    if (step.term != expected) {
      return Status::FailedPrecondition(
          "path step at " + step.term.ToString() + " expected " +
          expected.ToString());
    }
    Status violation = Status::OK();
    step.selection.ForEach([&](int id) {
      if (!violation.ok()) return;
      CourseId course = static_cast<CourseId>(id);
      if (completed.test(course)) {
        violation = Status::FailedPrecondition(
            "course '" + catalog.course(course).code + "' re-elected in " +
            step.term.ToString());
      } else if (!schedule.IsOffered(course, step.term)) {
        violation = Status::FailedPrecondition(
            "course '" + catalog.course(course).code + "' not offered in " +
            step.term.ToString());
      } else if (!catalog.compiled_prereq(course).Eval(completed)) {
        violation = Status::FailedPrecondition(
            "prerequisite of '" + catalog.course(course).code +
            "' unsatisfied in " + step.term.ToString());
      }
    });
    if (!violation.ok()) return violation;
    completed |= step.selection;
    expected = expected.Next();
  }
  return Status::OK();
}

std::string LearningPath::ToString(const Catalog& catalog) const {
  std::string out;
  for (const PathStep& step : steps_) {
    out += step.term.ToString();
    out += ": ";
    out += catalog.CourseSetToString(step.selection);
    out += "\n";
  }
  return out;
}

bool operator==(const LearningPath& a, const LearningPath& b) {
  if (a.start_term_ != b.start_term_ ||
      !(a.start_completed_ == b.start_completed_) ||
      a.steps_.size() != b.steps_.size()) {
    return false;
  }
  for (size_t i = 0; i < a.steps_.size(); ++i) {
    if (a.steps_[i].term != b.steps_[i].term ||
        !(a.steps_[i].selection == b.steps_[i].selection)) {
      return false;
    }
  }
  return true;
}

}  // namespace coursenav
