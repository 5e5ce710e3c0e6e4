// Reliability advisor: the paper's reliability-based ranking (§4.3.1) in
// action. Class schedules are final only a couple of semesters ahead;
// beyond that horizon, a plan is only as good as the odds that its courses
// actually run. This example ranks paths to the CS major by the probability
// that every planned offering materializes, and contrasts the most
// reliable plan with the fastest one.
//
// Run: ./build/examples/reliability_advisor

#include <cstdio>

#include "catalog/schedule_history.h"
#include "data/brandeis_cs.h"
#include "service/navigator.h"
#include "service/robustness.h"
#include "service/visualizer.h"

int main() {
  using namespace coursenav;

  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CourseNavigator navigator(&dataset.catalog, &dataset.schedule);

  EnrollmentStatus student{Term(Season::kFall, 2012),
                           dataset.catalog.NewCourseSet()};
  Term graduation(Season::kFall, 2015);
  ExplorationOptions options;

  // Probability model: the registrar has released final schedules through
  // Spring 2013; later semesters fall back to historical frequencies
  // estimated from the full window.
  ScheduleHistory history;
  history.ImportSchedule(dataset.schedule);
  Term release_end(Season::kSpring, 2013);
  OfferingProbabilityModel model(&dataset.schedule, release_end, history,
                                 /*default_prob=*/0.5);

  std::printf("Fresh student, %s -> %s; schedules final through %s.\n\n",
              student.term.ToString().c_str(),
              graduation.ToString().c_str(),
              release_end.ToString().c_str());

  // Most reliable plans.
  ReliabilityRanking reliability(&model);
  Result<std::shared_ptr<const RankedResult>> most_reliable =
      navigator.ExploreTopK(student, graduation, *dataset.cs_major,
                            reliability, /*k=*/3, options);
  if (!most_reliable.ok()) {
    std::fprintf(stderr, "%s\n", most_reliable.status().ToString().c_str());
    return 1;
  }
  const RankedResult& reliable = **most_reliable;
  std::printf("=== Top-3 most reliable plans ===\n");
  for (size_t i = 0; i < reliable.paths.size(); ++i) {
    double probability =
        ReliabilityRanking::CostToReliability(reliable.paths[i].cost());
    std::printf("Plan %zu: probability %.3f that every offering runs\n",
                i + 1, probability);
  }
  if (!reliable.paths.empty()) {
    std::printf("\nMost reliable plan in full:\n%s\n",
                reliable.paths[0].ToString(dataset.catalog).c_str());
  }

  // The fastest plan, for contrast: how much reliability does rushing cost?
  TimeRanking time_ranking;
  Result<std::shared_ptr<const RankedResult>> fastest = navigator.ExploreTopK(
      student, graduation, *dataset.cs_major, time_ranking, /*k=*/1,
      options);
  if (fastest.ok() && !(*fastest)->paths.empty()) {
    const LearningPath& fast = (*fastest)->paths[0];
    double fast_reliability = 1.0;
    for (const PathStep& step : fast.steps()) {
      step.selection.ForEach([&](int id) {
        fast_reliability *=
            model.Probability(static_cast<CourseId>(id), step.term);
      });
    }
    std::printf("Fastest plan: %d semesters, reliability %.3f\n",
                fast.Length(), fast_reliability);
    if (!reliable.paths.empty()) {
      std::printf(
          "Trade-off: the most reliable plan gives up %d semester(s) of "
          "speed for %.1fx better odds.\n",
          reliable.paths[0].Length() - fast.Length(),
          ReliabilityRanking::CostToReliability(reliable.paths[0].cost()) /
              (fast_reliability > 0 ? fast_reliability : 1e-9));
    }
  }

  // Beyond probabilities: which single cancellation would actually strand
  // a plan? (Analyzed on a tight 4-semester scenario, where every
  // perturbed re-count is instant; each perturbation re-counts the goal
  // space.)
  EnrollmentStatus late_starter{Term(Season::kFall, 2013),
                                dataset.catalog.NewCourseSet()};
  Result<std::shared_ptr<const RankedResult>> tight = navigator.ExploreTopK(
      late_starter, graduation, *dataset.cs_major, time_ranking, /*k=*/1,
      options);
  if (tight.ok() && !(*tight)->paths.empty()) {
    Result<PlanRobustness> robustness = AnalyzePlanRobustness(
        dataset.catalog, dataset.schedule, (*tight)->paths[0],
        *dataset.cs_major, graduation, options);
    if (robustness.ok()) {
      std::printf(
          "\n=== Robustness of a Fall-2013 starter's fastest plan ===\n%s",
          robustness->ToString(dataset.catalog).c_str());
      std::printf("single points of failure: %zu of %zu offerings\n",
                  robustness->SinglePointsOfFailure().size(),
                  robustness->dependencies.size());
    }
  }
  return 0;
}
