// Golden equivalence tests for frontier-batched pruning: for every staged
// candidate, `PruningOracle::ClassifyBatch` must reproduce — verdict for
// verdict and counter for counter — what a `ClassifyChild` loop over the
// same candidates produces. This is the contract that makes the batched
// generators' output byte-identical to the node-at-a-time path.
#include "core/pruning.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "core/engine.h"
#include "core/options.h"
#include "expr/parser.h"
#include "requirements/expr_goal.h"
#include "requirements/goal.h"
#include "util/bitset.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

/// A synthetic many-course world: enough courses that completed sets spill
/// from the bitset's inline words to heap storage, offered across a
/// several-semester window.
struct SyntheticFixture {
  static constexpr int kNumCourses = 200;
  Catalog catalog;
  OfferingSchedule schedule{0};
  Term start{Season::kFall, 2011};
  Term end;

  SyntheticFixture() {
    for (int i = 0; i < kNumCourses; ++i) {
      Course c;
      c.code = StrFormat("C%d", i);
      if (!catalog.AddCourse(std::move(c)).ok()) std::abort();
    }
    if (!catalog.Finalize().ok()) std::abort();
    schedule = OfferingSchedule(catalog.size());
    std::mt19937 rng(1234);
    constexpr int kNumTerms = 6;
    end = start + kNumTerms;
    for (int i = 0; i < kNumCourses; ++i) {
      // Each course runs in two random semesters of the window.
      for (int k = 0; k < 2; ++k) {
        int t = static_cast<int>(rng() % kNumTerms);
        (void)schedule.AddOffering(static_cast<CourseId>(i), start + t);
      }
    }
  }

  DynamicBitset RandomSet(std::mt19937& rng, int max_bits) const {
    DynamicBitset s = catalog.NewCourseSet();
    int bits = static_cast<int>(rng() % static_cast<unsigned>(max_bits + 1));
    for (int i = 0; i < bits; ++i) {
      s.set(static_cast<int>(rng() % kNumCourses));
    }
    return s;
  }
};

/// Runs the same randomized candidate stream through a ClassifyChild loop
/// (reference) and through ClassifyBatch (system under test), on two
/// oracles with identical configuration but separate engines/metrics, and
/// requires identical verdicts and identical pruning-counter deltas.
void RunDifferential(const SyntheticFixture& fix,
                     const std::shared_ptr<const Goal>& goal,
                     const GoalDrivenConfig& config,
                     const ExplorationOptions& options, uint32_t seed) {
  internal::ExplorationEngine ref_engine(fix.catalog, fix.schedule, options,
                                         fix.start, fix.end);
  internal::ExplorationEngine batch_engine(fix.catalog, fix.schedule, options,
                                           fix.start, fix.end);
  internal::PruningOracle ref_oracle(*goal, ref_engine, options, config);
  internal::PruningOracle batch_oracle(*goal, batch_engine, options, config);

  std::mt19937 rng(seed);
  internal::CandidateBatch batch;
  batch.Configure(fix.catalog.size());
  std::vector<internal::PruningOracle::Verdict> batch_verdicts;

  for (int round = 0; round < 20; ++round) {
    // One simulated parent expansion: a parent somewhere in the window
    // staging a variable number of candidate children (including sizes
    // that leave the batch partially full).
    Term parent_term = fix.start + static_cast<int>(rng() % 5);
    Term child_term = parent_term.Next();
    DynamicBitset parent = fix.RandomSet(rng, 40);
    int left_parent = config.enable_time_pruning
                          ? goal->MinCoursesRemaining(parent)
                          : -1;
    size_t num_candidates = 1 + rng() % internal::CandidateBatch::kDefaultCapacity;

    std::vector<DynamicBitset> selections;
    selections.reserve(num_candidates);
    for (size_t i = 0; i < num_candidates; ++i) {
      selections.push_back(fix.RandomSet(rng, options.max_courses_per_term));
    }

    // Reference: node-at-a-time loop.
    std::vector<internal::PruningOracle::Verdict> ref_verdicts;
    for (const DynamicBitset& selection : selections) {
      DynamicBitset child = parent;
      child |= selection;
      ref_verdicts.push_back(ref_oracle.ClassifyChild(
          child, selection.count(), child_term, left_parent));
    }

    // System under test: one staged batch.
    batch.Clear();
    for (const DynamicBitset& selection : selections) {
      batch.Push(parent, selection);
    }
    batch_oracle.ClassifyBatch(batch, child_term, left_parent,
                               &batch_verdicts);

    ASSERT_EQ(batch_verdicts.size(), ref_verdicts.size());
    for (size_t i = 0; i < ref_verdicts.size(); ++i) {
      EXPECT_EQ(batch_verdicts[i], ref_verdicts[i])
          << "seed=" << seed << " round=" << round << " candidate=" << i;
    }
    EXPECT_EQ(batch_engine.tallies().pruned_time,
              ref_engine.tallies().pruned_time)
        << "seed=" << seed << " round=" << round;
    EXPECT_EQ(batch_engine.tallies().pruned_availability,
              ref_engine.tallies().pruned_availability)
        << "seed=" << seed << " round=" << round;
  }
}

std::shared_ptr<const Goal> MonotoneGoal(const SyntheticFixture& fix) {
  std::vector<std::string> codes;
  for (int i = 0; i < 14; ++i) codes.push_back(StrFormat("C%d", i * 13));
  auto goal = ExprGoal::CompleteAll(codes, fix.catalog);
  if (!goal.ok()) std::abort();
  return *goal;
}

std::shared_ptr<const Goal> NonMonotoneGoal(const SyntheticFixture& fix) {
  // Negative literals make the goal non-monotone, forcing the uncached
  // batched-availability path and the dead-clause logic in the DNF kernel.
  auto parsed = expr::ParseBoolExpr(
      "(C1 and C2 and not C3) or (C4 and C5 and C6 and not C7) or "
      "(C8 and C9 and C10 and C11)");
  if (!parsed.ok()) std::abort();
  auto goal = ExprGoal::Create(*parsed, fix.catalog);
  if (!goal.ok()) std::abort();
  return *goal;
}

TEST(ClassifyBatchTest, MatchesScalarLoopMonotoneCachedGoal) {
  SyntheticFixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 4;
  GoalDrivenConfig config;  // defaults: both strategies + cache on
  RunDifferential(fix, MonotoneGoal(fix), config, options, 11);
}

TEST(ClassifyBatchTest, MatchesScalarLoopMonotoneCacheDisabled) {
  SyntheticFixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 4;
  GoalDrivenConfig config;
  config.cache_availability_checks = false;  // batched availability kernel
  RunDifferential(fix, MonotoneGoal(fix), config, options, 22);
}

TEST(ClassifyBatchTest, MatchesScalarLoopNonMonotoneGoal) {
  SyntheticFixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 3;
  GoalDrivenConfig config;
  RunDifferential(fix, NonMonotoneGoal(fix), config, options, 33);
}

TEST(ClassifyBatchTest, MatchesScalarLoopCompositeGoal) {
  SyntheticFixture fix;
  std::vector<std::shared_ptr<const Goal>> parts = {MonotoneGoal(fix),
                                                    NonMonotoneGoal(fix)};
  auto goal = std::make_shared<CompositeGoal>(std::move(parts));
  ExplorationOptions options;
  options.max_courses_per_term = 4;
  GoalDrivenConfig config;
  RunDifferential(fix, goal, config, options, 44);
}

TEST(ClassifyBatchTest, MatchesScalarLoopTimeOnly) {
  SyntheticFixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 2;  // tight loads: time pruning bites hard
  GoalDrivenConfig config;
  config.enable_availability_pruning = false;
  RunDifferential(fix, MonotoneGoal(fix), config, options, 55);
}

TEST(ClassifyBatchTest, MatchesScalarLoopAvailabilityOnly) {
  SyntheticFixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 4;
  GoalDrivenConfig config;
  config.enable_time_pruning = false;
  RunDifferential(fix, MonotoneGoal(fix), config, options, 66);
}

TEST(CandidateBatchTest, PushFusesUnionAndCounts) {
  SyntheticFixture fix;
  internal::CandidateBatch batch;
  batch.Configure(fix.catalog.size(), /*capacity=*/4);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());

  std::mt19937 rng(99);
  DynamicBitset parent = fix.RandomSet(rng, 30);
  DynamicBitset selection = fix.RandomSet(rng, 5);
  batch.Push(parent, selection);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.selection_size(0), selection.count());

  DynamicBitset completed_out(fix.catalog.size());
  DynamicBitset selection_out(fix.catalog.size());
  batch.CopyCompletedTo(0, &completed_out);
  batch.CopySelectionTo(0, &selection_out);
  DynamicBitset expected = parent;
  expected |= selection;
  EXPECT_EQ(completed_out, expected);
  EXPECT_EQ(selection_out, selection);

  for (int i = 0; i < 3; ++i) batch.Push(parent, selection);
  EXPECT_TRUE(batch.full());
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace coursenav
