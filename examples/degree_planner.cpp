// Degree planner: the paper's flagship scenario. A student mid-degree asks
// "given my past selections, which paths still lead to a CS major by my
// target graduation, and what must I take next semester?"
//
// Demonstrates: starting from a non-empty enrollment status, goal-driven
// exploration with constraints (avoided course, reduced load), and
// aggregating the output graph into next-semester advice.
//
// Run: ./build/examples/degree_planner

#include <cstdio>
#include <map>
#include <vector>

#include "data/brandeis_cs.h"
#include "service/navigator.h"
#include "service/visualizer.h"

int main() {
  using namespace coursenav;

  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CourseNavigator navigator(&dataset.catalog, &dataset.schedule);

  // The student completed three courses in their first year.
  Result<DynamicBitset> done = dataset.catalog.CourseSetFromCodes(
      {"COSI11A", "COSI29A", "COSI2A"});
  if (!done.ok()) {
    std::fprintf(stderr, "%s\n", done.status().ToString().c_str());
    return 1;
  }
  EnrollmentStatus student{Term(Season::kFall, 2013), *done};
  Term graduation(Season::kFall, 2015);

  // Constraints: at most 3 courses per semester, refuses COSI65A.
  ExplorationOptions options;
  options.max_courses_per_term = 3;
  DynamicBitset avoid = dataset.catalog.NewCourseSet();
  avoid.set(*dataset.catalog.FindByCode("COSI65A"));
  options.avoid_courses = avoid;

  std::printf("Student status: %s, completed %s\n",
              student.term.ToString().c_str(),
              dataset.catalog.CourseSetToString(student.completed).c_str());
  std::printf("Goal: %s by %s (avoiding COSI65A)\n\n",
              dataset.cs_major->Describe().c_str(),
              graduation.ToString().c_str());

  Result<std::shared_ptr<const GenerationResult>> explored =
      navigator.ExploreGoal(student, graduation, *dataset.cs_major, options);
  if (!explored.ok()) {
    std::fprintf(stderr, "exploration failed: %s\n",
                 explored.status().ToString().c_str());
    return 1;
  }
  const GenerationResult& result = **explored;
  std::printf("%s\n", RenderGraphSummary(result.graph, result.stats).c_str());

  if (result.stats.goal_paths == 0) {
    std::printf("No path reaches the major by %s — pick a later deadline.\n",
                graduation.ToString().c_str());
    return 0;
  }

  // Next-semester advice: how often does each course appear in the
  // first step of a path that still reaches the major?
  std::map<std::string, int> first_step_frequency;
  int64_t goal_leaves = 0;
  for (NodeId leaf : result.graph.GoalNodes()) {
    ++goal_leaves;
    LearningPath path = LearningPath::FromGraph(result.graph, leaf);
    if (path.steps().empty()) continue;
    path.steps()[0].selection.ForEach([&](int id) {
      ++first_step_frequency[
          dataset.catalog.course(static_cast<CourseId>(id)).code];
    });
  }
  std::printf("Fall 2013 course choices, by share of surviving paths:\n");
  std::vector<std::pair<int, std::string>> ordered;
  for (const auto& [code, count] : first_step_frequency) {
    ordered.emplace_back(count, code);
  }
  std::sort(ordered.rbegin(), ordered.rend());
  for (const auto& [count, code] : ordered) {
    std::printf("  %-10s keeps %5.1f%% of paths alive\n", code.c_str(),
                100.0 * count / static_cast<double>(goal_leaves));
  }
  return 0;
}
