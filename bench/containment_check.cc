// Reproduces the paper's §5.2 "Comparison with Existing Learning Paths"
// experiment: build student learning paths (the paper had 83 anonymized
// Brandeis transcripts, Fall '12 - Fall '15; we simulate them — see
// DESIGN.md) and verify every one of them is contained in the goal-driven
// generator's output for the same period, while the generator offers
// millions of additional alternatives.
//
// Containment for the full 6-semester period is checked against the
// generator's *rules* (the materialized 6-semester graph is exactly what
// the paper could not hold either): a path is generated iff every step
// elects a subset of the status's option set under the skip rule, no
// proper prefix already satisfies the goal, and the final status does.
// For the 4-semester period the check is additionally done by brute force
// against the fully materialized path set.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/counting.h"
#include "core/engine.h"
#include "core/enrollment.h"
#include "core/goal_generator.h"
#include "data/brandeis_cs.h"
#include "data/transcripts.h"
#include "graph/path.h"

namespace coursenav {
namespace {

/// Membership test against the goal-driven generator's construction rules.
bool WouldBeGenerated(const LearningPath& path, const Catalog& catalog,
                      const OfferingSchedule& schedule, const Goal& goal,
                      Term end_term, const ExplorationOptions& options) {
  if (!path.Validate(catalog, schedule).ok()) return false;
  internal::ExplorationEngine engine(catalog, schedule, options,
                                     path.start_term(), end_term);
  DynamicBitset completed = path.start_completed();
  for (const PathStep& step : path.steps()) {
    if (goal.IsSatisfied(completed)) return false;  // generator stops here
    if (step.term >= end_term) return false;
    DynamicBitset electable =
        ComputeOptions(catalog, schedule.OfferedIn(step.term), completed,
                       options.avoid_courses);
    if (step.selection.empty()) {
      bool skip_allowed =
          options.allow_voluntary_skip ||
          (electable.empty() &&
           engine.FutureCourseExists(completed, step.term));
      if (!skip_allowed) return false;
    } else {
      if (!step.selection.IsSubsetOf(electable)) return false;
      if (step.selection.count() > options.max_courses_per_term) return false;
    }
    completed |= step.selection;
  }
  return goal.IsSatisfied(completed);
}

void Run(const bench::BenchArgs& args) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  const int span = 6;  // the paper's Fall '12 -> Fall '15 period
  EnrollmentStatus start{data::StartTermForSpan(span),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;

  std::printf("Section 5.2: containment of student learning paths\n");
  std::printf("(simulated transcripts, %s -> %s, m = 3)\n\n",
              start.term.ToString().c_str(), end.ToString().c_str());

  data::TranscriptSimulationConfig sim;
  sim.num_students = 83;  // the paper's cohort size
  sim.seed = 2016;
  auto transcripts =
      data::SimulateTranscripts(dataset.catalog, dataset.schedule,
                                *dataset.cs_major, start, end, options, sim);
  if (!transcripts.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 transcripts.status().ToString().c_str());
    return;
  }

  int contained = 0;
  for (const LearningPath& path : *transcripts) {
    if (WouldBeGenerated(path, dataset.catalog, dataset.schedule,
                         *dataset.cs_major, end, options)) {
      ++contained;
    }
  }
  std::printf("student paths contained in generated set: %d / %d\n",
              contained, sim.num_students);

  // Scale context: how many goal paths exist for the same period.
  ExplorationOptions count_options;
  count_options.limits.max_seconds = args.full ? 900.0 : 90.0;
  auto count = CountGoalDrivenPaths(dataset.catalog, dataset.schedule, start,
                                    end, *dataset.cs_major, count_options);
  if (count.ok()) {
    std::printf("total goal-driven paths for the period: %s "
                "(%s distinct statuses, %.1f s)\n",
                bench::WithCommas(count->total_paths).c_str(),
                bench::WithCommas(
                    static_cast<uint64_t>(count->distinct_statuses))
                    .c_str(),
                count->runtime_seconds);
  } else {
    std::printf("total goal-driven paths for the period: > counting budget "
                "(%s)\n",
                count.status().ToString().c_str());
  }

  // Brute-force cross-check on the 4-semester period, where the whole goal
  // graph is materializable.
  const int small_span = 4;
  EnrollmentStatus small_start{data::StartTermForSpan(small_span),
                               dataset.catalog.NewCourseSet()};
  data::TranscriptSimulationConfig small_sim;
  small_sim.num_students = 25;
  small_sim.seed = 7;
  auto small_transcripts = data::SimulateTranscripts(
      dataset.catalog, dataset.schedule, *dataset.cs_major, small_start, end,
      options, small_sim);
  auto generated =
      GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule, small_start,
                              end, *dataset.cs_major, options);
  if (small_transcripts.ok() && generated.ok()) {
    std::vector<LearningPath> all_paths;
    for (NodeId leaf : generated->graph.GoalNodes()) {
      all_paths.push_back(LearningPath::FromGraph(generated->graph, leaf));
    }
    int brute_contained = 0;
    for (const LearningPath& transcript : *small_transcripts) {
      for (const LearningPath& candidate : all_paths) {
        if (candidate == transcript) {
          ++brute_contained;
          break;
        }
      }
    }
    std::printf(
        "\n4-semester brute-force cross-check: %d / %d student paths found "
        "among %s materialized goal paths\n",
        brute_contained, small_sim.num_students,
        bench::WithCommas(static_cast<uint64_t>(all_paths.size())).c_str());
  }

  std::printf(
      "\nPaper shape check: every student path is contained (83/83 in the\n"
      "paper), and the generator exposes millions of alternatives the\n"
      "students never considered.\n");
}

}  // namespace
}  // namespace coursenav

int main(int argc, char** argv) {
  coursenav::bench::BenchArgs args =
      coursenav::bench::BenchArgs::Parse(argc, argv);
  coursenav::Run(args);
  return 0;
}
