// Cross-checks the generators against an independent, naive reference
// enumerator: a direct recursive transcription of the paper's semantics
// using none of the library's engine machinery (no ExplorationEngine, no
// ForEachSelection, no pruning). Any divergence in the shared fast paths
// (bitsets, suffix caches, combination enumeration, pruning soundness)
// shows up as a set difference here.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <vector>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "data/synthetic.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"
#include "util/simd/simd.h"

namespace coursenav {
namespace {

using testing_util::AllLeafPaths;
using testing_util::Figure3Fixture;
using testing_util::GoalPaths;

/// A path as a canonical comparable value: selections (as sorted id lists)
/// per semester from the start term.
using FlatPath = std::vector<std::vector<int>>;

FlatPath Flatten(const LearningPath& path) {
  FlatPath flat;
  for (const PathStep& step : path.steps()) {
    flat.push_back(step.selection.ToIndices());
  }
  return flat;
}

/// Naive reference enumerator.
class ReferenceEnumerator {
 public:
  ReferenceEnumerator(const Catalog& catalog, const OfferingSchedule& schedule,
                      int max_per_term, Term end)
      : catalog_(catalog),
        schedule_(schedule),
        max_per_term_(max_per_term),
        end_(end) {}

  /// All deadline-driven paths from (term, completed).
  std::set<FlatPath> Enumerate(Term term, std::set<int> completed) {
    std::set<FlatPath> out;
    FlatPath prefix;
    Recurse(term, completed, prefix, &out);
    return out;
  }

 private:
  std::vector<int> Options(Term term, const std::set<int>& completed) {
    std::vector<int> options;
    for (int c = 0; c < catalog_.size(); ++c) {
      if (completed.count(c)) continue;
      if (!schedule_.IsOffered(c, term)) continue;
      // Evaluate the prerequisite expression directly on the tree.
      bool eligible = catalog_.course(c).prerequisites.Eval(
          [&](std::string_view code) {
            auto id = catalog_.FindByCode(code);
            return id.ok() && completed.count(*id) > 0;
          });
      if (eligible) options.push_back(c);
    }
    return options;
  }

  bool FutureCourseExists(Term term, const std::set<int>& completed) {
    for (Term t = term.Next(); t < end_; t = t.Next()) {
      for (int c = 0; c < catalog_.size(); ++c) {
        if (!completed.count(c) && schedule_.IsOffered(c, t)) return true;
      }
    }
    return false;
  }

  void Recurse(Term term, const std::set<int>& completed, FlatPath& prefix,
               std::set<FlatPath>* out) {
    if (term == end_) {
      out->insert(prefix);
      return;
    }
    std::vector<int> options = Options(term, completed);
    bool expanded = false;
    // All non-empty subsets within the load limit, via bitmask sweep.
    for (uint32_t mask = 1; mask < (1u << options.size()); ++mask) {
      if (simd::PopcountWord(mask) > max_per_term_) continue;
      std::vector<int> selection;
      std::set<int> next = completed;
      for (size_t i = 0; i < options.size(); ++i) {
        if ((mask >> i) & 1) {
          selection.push_back(options[i]);
          next.insert(options[i]);
        }
      }
      prefix.push_back(selection);
      Recurse(term.Next(), next, prefix, out);
      prefix.pop_back();
      expanded = true;
    }
    if (options.empty() && FutureCourseExists(term, completed)) {
      prefix.push_back({});
      Recurse(term.Next(), completed, prefix, out);
      prefix.pop_back();
      expanded = true;
    }
    if (!expanded) out->insert(prefix);  // dead end
  }

  const Catalog& catalog_;
  const OfferingSchedule& schedule_;
  int max_per_term_;
  Term end_;
};

TEST(ReferenceEnumerationTest, Figure3ExactMatch) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto generated = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(generated.ok());

  ReferenceEnumerator reference(fix.catalog, fix.schedule, 3, fix.spring13);
  std::set<FlatPath> expected = reference.Enumerate(fix.fall11, {});

  std::set<FlatPath> actual;
  for (const LearningPath& path : AllLeafPaths(generated->graph)) {
    actual.insert(Flatten(path));
  }
  EXPECT_EQ(actual, expected);
}

struct ReferenceCase {
  uint64_t seed;
  int num_courses;
  int span;
  int m;
};

void PrintTo(const ReferenceCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_courses" << c.num_courses << "_span" << c.span
      << "_m" << c.m;
}

class ReferenceSweepTest : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(ReferenceSweepTest, DeadlineGeneratorMatchesReference) {
  const ReferenceCase& param = GetParam();
  data::SyntheticConfig config;
  config.num_courses = param.num_courses;
  config.num_intro_courses = 2;
  config.seed = param.seed;
  config.offering_probability = 0.5;
  auto bundle = data::BuildSyntheticCatalog(config);
  ASSERT_TRUE(bundle.ok());

  ExplorationOptions options;
  options.max_courses_per_term = param.m;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  Term end = config.first_term + param.span;

  auto generated = GenerateDeadlineDrivenPaths(bundle->catalog,
                                               bundle->schedule, start, end,
                                               options);
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(generated->termination.ok());

  ReferenceEnumerator reference(bundle->catalog, bundle->schedule, param.m,
                                end);
  std::set<FlatPath> expected = reference.Enumerate(config.first_term, {});

  std::set<FlatPath> actual;
  for (const LearningPath& path : AllLeafPaths(generated->graph)) {
    actual.insert(Flatten(path));
  }
  ASSERT_EQ(actual.size(),
            static_cast<size_t>(generated->stats.terminal_paths))
      << "duplicate paths generated (seed " << param.seed << ")";
  EXPECT_EQ(actual, expected) << "seed " << param.seed;
}

TEST_P(ReferenceSweepTest, GoalGeneratorMatchesFilteredReference) {
  const ReferenceCase& param = GetParam();
  data::SyntheticConfig config;
  config.num_courses = param.num_courses;
  config.num_intro_courses = 2;
  config.seed = param.seed;
  config.offering_probability = 0.5;
  auto bundle = data::BuildSyntheticCatalog(config);
  ASSERT_TRUE(bundle.ok());

  std::vector<std::string> goal_codes;
  for (int i = 0; i < 3 && i < config.num_courses; ++i) {
    goal_codes.push_back(bundle->catalog.course(i).code);
  }
  auto goal = ExprGoal::CompleteAll(goal_codes, bundle->catalog);
  ASSERT_TRUE(goal.ok());

  ExplorationOptions options;
  options.max_courses_per_term = param.m;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  Term end = config.first_term + param.span;

  auto generated = GenerateGoalDrivenPaths(bundle->catalog, bundle->schedule,
                                           start, end, **goal, options);
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(generated->termination.ok());

  // Reference goal paths: truncate every deadline-driven path at the first
  // prefix whose completed set satisfies the goal; keep those that satisfy
  // it at all (deduplicated — many deadline paths share a goal prefix).
  ReferenceEnumerator reference(bundle->catalog, bundle->schedule, param.m,
                                end);
  std::set<FlatPath> expected;
  for (const FlatPath& path : reference.Enumerate(config.first_term, {})) {
    std::set<int> completed;
    FlatPath truncated;
    bool reached = false;
    for (const std::vector<int>& step : path) {
      bool satisfied = (*goal)->IsSatisfied(DynamicBitset::FromIndices(
          bundle->catalog.size(),
          std::vector<int>(completed.begin(), completed.end())));
      if (satisfied) {
        reached = true;
        break;
      }
      truncated.push_back(step);
      completed.insert(step.begin(), step.end());
    }
    if (!reached) {
      reached = (*goal)->IsSatisfied(DynamicBitset::FromIndices(
          bundle->catalog.size(),
          std::vector<int>(completed.begin(), completed.end())));
    }
    if (reached) expected.insert(truncated);
  }

  std::set<FlatPath> actual;
  for (const LearningPath& path : GoalPaths(generated->graph)) {
    actual.insert(Flatten(path));
  }
  EXPECT_EQ(actual, expected) << "seed " << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReferenceSweepTest,
    ::testing::Values(ReferenceCase{31, 6, 3, 2}, ReferenceCase{32, 6, 4, 2},
                      ReferenceCase{33, 7, 3, 2}, ReferenceCase{34, 5, 4, 3},
                      ReferenceCase{35, 8, 3, 2},
                      ReferenceCase{36, 6, 4, 3}));

}  // namespace
}  // namespace coursenav
