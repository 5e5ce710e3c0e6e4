#include "data/transcripts.h"

#include <vector>

#include "util/random.h"
#include "util/string_util.h"

namespace coursenav::data {

namespace {

/// One randomized walk. Returns the path if it reaches the goal by
/// `end_term`, or nothing (signalled via `reached`) otherwise.
LearningPath Walk(const Catalog& catalog, const OfferingSchedule& schedule,
                  const Goal& goal, const EnrollmentStatus& start,
                  Term end_term, const ExplorationOptions& options,
                  const TranscriptSimulationConfig& config, Random& rng,
                  bool* reached) {
  LearningPath path(start.term, start.completed);
  DynamicBitset completed = start.completed;
  *reached = false;

  for (Term term = start.term; term < end_term; term = term.Next()) {
    if (goal.IsSatisfied(completed)) {
      *reached = true;
      return path;
    }
    DynamicBitset electable = ComputeOptions(
        catalog, schedule.OfferedIn(term), completed, options.avoid_courses);
    std::vector<int> pool = electable.ToIndices();

    int load = options.max_courses_per_term;
    if (!rng.Bernoulli(config.diligence) && load > 1) {
      load = rng.UniformInt(1, load);
    }

    DynamicBitset selection(catalog.size());
    int current_left = goal.MinCoursesRemaining(completed);
    for (int slot = 0; slot < load && !pool.empty(); ++slot) {
      // Split the remaining pool into goal-advancing picks and fillers.
      std::vector<int> useful;
      for (int candidate : pool) {
        DynamicBitset with = completed;
        with |= selection;
        with.set(candidate);
        if (goal.MinCoursesRemaining(with) < current_left) {
          useful.push_back(candidate);
        }
      }
      int pick;
      if (!useful.empty() && rng.Bernoulli(config.focus)) {
        pick = useful[static_cast<size_t>(rng.Uniform(useful.size()))];
      } else {
        pick = pool[static_cast<size_t>(rng.Uniform(pool.size()))];
      }
      selection.set(pick);
      DynamicBitset with = completed;
      with |= selection;
      current_left = goal.MinCoursesRemaining(with);
      std::erase(pool, pick);
    }

    path.AppendStep(term, selection);
    completed |= selection;
  }

  *reached = goal.IsSatisfied(completed);
  return path;
}

/// Drops trailing empty steps so the path ends at the semester in which
/// the goal was first reached — the shape of the generator's goal leaves.
void TrimTrailingSkips(LearningPath* path, const Catalog& catalog,
                       const Goal& goal) {
  DynamicBitset completed = path->start_completed();
  LearningPath trimmed(path->start_term(), path->start_completed());
  for (const PathStep& step : path->steps()) {
    if (goal.IsSatisfied(completed)) break;
    trimmed.AppendStep(step.term, step.selection);
    completed |= step.selection;
  }
  (void)catalog;
  *path = std::move(trimmed);
}

}  // namespace

Result<std::vector<LearningPath>> SimulateTranscripts(
    const Catalog& catalog, const OfferingSchedule& schedule, const Goal& goal,
    const EnrollmentStatus& start, Term end_term,
    const ExplorationOptions& options,
    const TranscriptSimulationConfig& config) {
  COURSENAV_RETURN_IF_ERROR(
      ValidateExplorationInputs(catalog, schedule, start, options));
  if (end_term <= start.term) {
    return Status::InvalidArgument("end semester must be after the start");
  }
  if (config.num_students < 1) {
    return Status::InvalidArgument("num_students must be >= 1");
  }

  Random rng(config.seed);
  std::vector<LearningPath> paths;
  paths.reserve(static_cast<size_t>(config.num_students));
  for (int student = 0; student < config.num_students; ++student) {
    bool reached = false;
    LearningPath path(start.term, start.completed);
    for (int attempt = 0; attempt < config.max_attempts_per_student;
         ++attempt) {
      path = Walk(catalog, schedule, goal, start, end_term, options, config,
                  rng, &reached);
      if (reached) break;
    }
    if (!reached) {
      return Status::ResourceExhausted(StrFormat(
          "student %d found no goal-reaching walk in %d attempts", student,
          config.max_attempts_per_student));
    }
    TrimTrailingSkips(&path, catalog, goal);
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace coursenav::data
