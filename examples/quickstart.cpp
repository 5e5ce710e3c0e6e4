// Quickstart: load the bundled Brandeis-like CS dataset, explore learning
// paths toward a CS major, and print the shortest ones.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "data/brandeis_cs.h"
#include "service/navigator.h"
#include "service/visualizer.h"

int main() {
  using namespace coursenav;

  // 1. The registrar dataset: 38 CS courses, schedules Fall'11 - Fall'15,
  //    and the CS-major requirement (7 core + 5 electives).
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CourseNavigator navigator(&dataset.catalog, &dataset.schedule);

  // 2. A brand-new student starting Fall 2013, at most 3 courses per
  //    semester, aiming to finish by Fall 2015.
  EnrollmentStatus student{Term(Season::kFall, 2013),
                           dataset.catalog.NewCourseSet()};
  Term deadline(Season::kFall, 2015);
  ExplorationOptions options;
  options.max_courses_per_term = 3;

  // 3. All goal-driven learning paths to the major.
  Result<std::shared_ptr<const GenerationResult>> goal_result =
      navigator.ExploreGoal(student, deadline, *dataset.cs_major, options);
  if (!goal_result.ok()) {
    std::fprintf(stderr, "goal exploration failed: %s\n",
                 goal_result.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Goal-driven exploration (CS major by %s) ===\n%s\n",
              deadline.ToString().c_str(),
              RenderGraphSummary((*goal_result)->graph, (*goal_result)->stats)
                  .c_str());

  // 4. The top-5 shortest paths (time-based ranking).
  TimeRanking ranking;
  Result<std::shared_ptr<const RankedResult>> ranked = navigator.ExploreTopK(
      student, deadline, *dataset.cs_major, ranking, /*k=*/5, options);
  if (!ranked.ok()) {
    std::fprintf(stderr, "ranked exploration failed: %s\n",
                 ranked.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Top-5 shortest paths ===\n%s",
              RenderPaths((*ranked)->paths, dataset.catalog).c_str());
  return 0;
}
