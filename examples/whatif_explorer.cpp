// What-if explorer: interactive-style exploration of the questions the
// paper's introduction motivates — "which course selections increase my
// future options?", "what does skipping a semester cost me?" — by
// repeatedly re-running the generators from hypothetical statuses and
// comparing option counts and path populations.
//
// Also demonstrates the registrar-facing pipeline: the catalog is loaded
// from JSON text (Prerequisite Parser + Schedule Parser under the hood)
// and the resulting graph is exported to DOT for the visualizer.
//
// Run: ./build/examples/whatif_explorer

#include <cstdio>

#include "core/combinations.h"
#include "core/counting.h"
#include "graph/export.h"
#include "parsers/catalog_loader.h"
#include "requirements/expr_goal.h"
#include "service/navigator.h"
#include "service/visualizer.h"

namespace {

// A small department described the way a registrar would: prerequisite
// sentences and offering lists.
constexpr const char* kCatalogJson = R"({
  "courses": [
    {"code": "CS1", "title": "Intro to Programming", "workload": 7,
     "prerequisites": "none",
     "offered": ["Fall 2014", "Spring 2015", "Fall 2015", "Spring 2016"]},
    {"code": "MATH1", "title": "Discrete Mathematics", "workload": 8,
     "prerequisites": "none",
     "offered": ["Fall 2014", "Spring 2015", "Fall 2015", "Spring 2016"]},
    {"code": "CS2", "title": "Data Structures", "workload": 9,
     "prerequisites": "Prerequisite: CS 1.",
     "offered": ["Spring 2015", "Fall 2015", "Spring 2016"]},
    {"code": "CS3", "title": "Algorithms", "workload": 10,
     "prerequisites": "CS 2 and MATH 1",
     "offered": ["Fall 2015", "Spring 2016"]},
    {"code": "CS4", "title": "Operating Systems", "workload": 10,
     "prerequisites": "CS 2",
     "offered": ["Fall 2015"]},
    {"code": "CS5", "title": "Databases", "workload": 9,
     "prerequisites": "CS 2 or permission of the instructor",
     "offered": ["Spring 2016"]},
    {"code": "STAT1", "title": "Statistics", "workload": 6,
     "prerequisites": "MATH 1",
     "offered": ["Spring 2015", "Spring 2016"]}
  ]
})";

}  // namespace

int main() {
  using namespace coursenav;

  Result<CatalogBundle> bundle = LoadCatalogFromJson(kCatalogJson);
  if (!bundle.ok()) {
    std::fprintf(stderr, "catalog load failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  const Catalog& catalog = bundle->catalog;
  CourseNavigator navigator(&catalog, &bundle->schedule);

  EnrollmentStatus fresh{Term(Season::kFall, 2014), catalog.NewCourseSet()};
  Term horizon(Season::kFall, 2016);
  ExplorationOptions options;
  options.max_courses_per_term = 2;

  // Question 1: how many futures does each Fall 2014 selection keep open?
  std::printf("What-if: option value of each Fall 2014 selection\n");
  std::printf("(paths counted to the %s horizon, max 2 courses/semester)\n\n",
              horizon.ToString().c_str());
  DynamicBitset first_options =
      ComputeOptions(catalog, bundle->schedule.OfferedIn(fresh.term),
                     fresh.completed, options.avoid_courses);
  std::vector<DynamicBitset> candidates;
  ForEachSelection(first_options, 1, options.max_courses_per_term,
                   [&](const DynamicBitset& selection) {
                     candidates.push_back(selection);
                     return true;
                   });
  for (const DynamicBitset& selection : candidates) {
    DynamicBitset next = fresh.completed;
    next |= selection;
    EnrollmentStatus hypothetical{fresh.term.Next(), next};
    Result<CountingResult> futures =
        navigator.CountDeadline(hypothetical, horizon, options);
    std::printf("  take %-14s -> %6llu future paths\n",
                catalog.CourseSetToString(selection).c_str(),
                futures.ok()
                    ? static_cast<unsigned long long>(futures->total_paths)
                    : 0ull);
  }

  // Question 2: what does a gap semester in Spring 2015 cost toward
  // finishing CS3 + CS4 + CS5?
  auto core_goal = ExprGoal::CompleteAll({"CS3", "CS4", "CS5"}, catalog);
  if (!core_goal.ok()) return 1;
  DynamicBitset after_fall = catalog.NewCourseSet();
  after_fall.set(*catalog.FindByCode("CS1"));
  after_fall.set(*catalog.FindByCode("MATH1"));

  EnrollmentStatus on_track{Term(Season::kSpring, 2015), after_fall};
  EnrollmentStatus after_gap{Term(Season::kFall, 2015), after_fall};
  auto on_track_paths =
      navigator.CountGoal(on_track, horizon, **core_goal, options);
  auto gap_paths =
      navigator.CountGoal(after_gap, horizon, **core_goal, options);
  std::printf(
      "\nWhat-if: complete CS3, CS4 and CS5 by %s\n"
      "  staying enrolled Spring 2015: %llu paths\n"
      "  taking a gap semester:        %llu paths\n",
      horizon.ToString().c_str(),
      on_track_paths.ok()
          ? static_cast<unsigned long long>(on_track_paths->goal_paths)
          : 0ull,
      gap_paths.ok()
          ? static_cast<unsigned long long>(gap_paths->goal_paths)
          : 0ull);

  // Question 3: render the on-track goal graph for the visualizer.
  auto explored =
      navigator.ExploreGoal(on_track, horizon, **core_goal, options);
  if (explored.ok()) {
    const GenerationResult& generation = **explored;
    std::printf("\nGoal graph for the on-track student: %lld nodes, "
                "%lld goal paths.\nDOT output (first lines):\n",
                static_cast<long long>(generation.graph.num_nodes()),
                static_cast<long long>(generation.stats.goal_paths));
    std::string dot = LearningGraphToDot(generation.graph, catalog);
    std::printf("%.400s...\n", dot.c_str());
  }
  return 0;
}
