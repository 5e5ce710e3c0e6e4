// Graceful-degradation ladder tests: complete answers stay undegraded,
// budget-starved requests descend rung by rung, and a dead budget still
// yields the best partial answer plus an honest DegradationReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "data/brandeis_cs.h"
#include "service/degradation.h"
#include "service/session.h"
#include "tests/test_util.h"
#include "util/json.h"

namespace coursenav {
namespace {

/// Field-by-field equality for round-trip assertions.
void ExpectReportsEqual(const DegradationReport& a,
                        const DegradationReport& b) {
  EXPECT_EQ(a.level_served, b.level_served);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.exhausted, b.exhausted);
  ASSERT_EQ(a.rungs.size(), b.rungs.size());
  for (size_t i = 0; i < a.rungs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.rungs[i].level, b.rungs[i].level);
    EXPECT_EQ(a.rungs[i].attempted, b.rungs[i].attempted);
    EXPECT_EQ(a.rungs[i].outcome.code(), b.rungs[i].outcome.code());
    EXPECT_EQ(a.rungs[i].outcome.message(), b.rungs[i].outcome.message());
    EXPECT_EQ(a.rungs[i].seconds_budget, b.rungs[i].seconds_budget);
    EXPECT_EQ(a.rungs[i].seconds_spent, b.rungs[i].seconds_spent);
    EXPECT_EQ(a.rungs[i].nodes_created, b.rungs[i].nodes_created);
  }
}

class DegradationTest : public ::testing::Test {
 protected:
  data::BrandeisDataset dataset_ = data::BuildBrandeisDataset();
  Term end_ = data::EvaluationEndTerm();
  CourseNavigator navigator_{&dataset_.catalog, &dataset_.schedule};

  ExplorationRequest GoalRequest(int span) {
    ExplorationRequest request;
    request.start = {data::StartTermForSpan(span),
                     dataset_.catalog.NewCourseSet()};
    request.end_term = end_;
    request.type = TaskType::kGoalDriven;
    request.goal = dataset_.cs_major;
    return request;
  }
};

TEST_F(DegradationTest, DefaultLaddersEndInCounting) {
  for (TaskType type : {TaskType::kDeadlineDriven, TaskType::kGoalDriven,
                        TaskType::kRanked}) {
    std::vector<DegradationLevel> ladder = DefaultLadder(type);
    ASSERT_FALSE(ladder.empty());
    EXPECT_EQ(ladder.front(), DegradationLevel::kFull);
    EXPECT_EQ(ladder.back(), DegradationLevel::kCountOnly);
  }
  std::vector<DegradationLevel> ranked = DefaultLadder(TaskType::kRanked);
  EXPECT_EQ(std::count(ranked.begin(), ranked.end(),
                       DegradationLevel::kRankedSmallK),
            1);
}

TEST_F(DegradationTest, GenerousBudgetServesTheFullAnswer) {
  ExplorationRequest request = GoalRequest(4);
  auto degraded = ExploreWithDegradation(navigator_, request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->report.degraded);
  EXPECT_FALSE(degraded->report.exhausted);
  EXPECT_EQ(degraded->report.level_served, DegradationLevel::kFull);
  ASSERT_NE(degraded->response, nullptr);
  ASSERT_TRUE(degraded->response->generation.has_value());
  EXPECT_TRUE(degraded->response->generation->termination.ok());
  ASSERT_EQ(degraded->report.rungs.size(), 1u);
  EXPECT_TRUE(degraded->report.rungs[0].outcome.ok());
}

TEST_F(DegradationTest, NodeStarvedRequestDescendsToCounting) {
  // Span 5: ~860k goal paths but only ~150k distinct statuses, so the graph
  // rungs die on a 500-node cap while counting finishes in well under a
  // second once its cap is lifted.
  ExplorationRequest request = GoalRequest(5);
  request.options.limits.max_nodes = 500;  // kills both graph rungs
  DegradationPolicy policy;
  policy.count_max_nodes = 1 << 20;  // counting caps statuses; lift it
  auto degraded = ExploreWithDegradation(navigator_, request, policy);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->report.degraded);
  EXPECT_FALSE(degraded->report.exhausted);
  EXPECT_EQ(degraded->report.level_served, DegradationLevel::kCountOnly);
  ASSERT_TRUE(degraded->count.has_value());
  EXPECT_GT(degraded->count->goal_paths, 0u);
  // Every rung above the one that answered is recorded with its failure.
  ASSERT_EQ(degraded->report.rungs.size(), 3u);
  EXPECT_TRUE(degraded->report.rungs[0].attempted);
  EXPECT_TRUE(degraded->report.rungs[0].outcome.IsResourceExhausted());
  EXPECT_TRUE(degraded->report.rungs[1].attempted);
  EXPECT_TRUE(degraded->report.rungs[1].outcome.IsResourceExhausted());
  EXPECT_TRUE(degraded->report.rungs[2].outcome.ok());
  // The report carries a human-readable rendering.
  EXPECT_NE(degraded->report.ToString().find("count-only"),
            std::string::npos);

  // A real ladder run's report round-trips through the JSON exporter with
  // full fidelity, including the non-OK outcomes on the fallen rungs.
  Result<JsonValue> reparsed = JsonValue::Parse(degraded->report.ToJson()
                                                    .Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  Result<DegradationReport> round_trip = DegradationReport::FromJson(
      *reparsed);
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  ExpectReportsEqual(degraded->report, *round_trip);
}

TEST_F(DegradationTest, ReportJsonRoundTripsEveryField) {
  DegradationReport report;
  report.level_served = DegradationLevel::kRankedSmallK;
  report.degraded = true;
  report.exhausted = true;
  DegradationRung full;
  full.level = DegradationLevel::kFull;
  full.attempted = true;
  full.outcome = Status::ResourceExhausted("node budget (500) exhausted");
  full.seconds_budget = 0.125;
  full.seconds_spent = 0.0625;  // binary fractions survive double exactly
  full.nodes_created = 500;
  report.rungs.push_back(full);
  DegradationRung skipped;
  skipped.level = DegradationLevel::kRankedSmallK;
  skipped.attempted = false;
  skipped.outcome = Status::FailedPrecondition("needs a goal and a ranking");
  report.rungs.push_back(skipped);

  JsonValue json = report.ToJson();
  // Through the actual serialized text, not just the in-memory tree.
  Result<JsonValue> reparsed = JsonValue::Parse(json.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  Result<DegradationReport> round_trip =
      DegradationReport::FromJson(*reparsed);
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  ExpectReportsEqual(report, *round_trip);
}

TEST_F(DegradationTest, ReportFromJsonRejectsMalformedInput) {
  EXPECT_FALSE(DegradationReport::FromJson(JsonValue("not an object")).ok());
  // Unknown level name.
  DegradationReport report;
  JsonValue json = report.ToJson();
  json.object()["level_served"] = JsonValue(std::string("warp-speed"));
  EXPECT_FALSE(DegradationReport::FromJson(json).ok());
  // Unknown status code inside a rung.
  DegradationRung rung;
  report.rungs.push_back(rung);
  json = report.ToJson();
  json.object()["rungs"].array()[0].object()["outcome"].object()["code"] =
      JsonValue(std::string("kBogus"));
  EXPECT_FALSE(DegradationReport::FromJson(json).ok());
}

TEST_F(DegradationTest, ParseDegradationLevelMatchesNames) {
  for (DegradationLevel level :
       {DegradationLevel::kFull, DegradationLevel::kAggressivePruning,
        DegradationLevel::kRankedSmallK, DegradationLevel::kCountOnly}) {
    Result<DegradationLevel> parsed =
        ParseDegradationLevel(DegradationLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ParseDegradationLevel("turbo").ok());
}

TEST_F(DegradationTest, FiftyMsDeadlineOnBlowUpAnswersWithinTwiceThat) {
  ExplorationRequest request = GoalRequest(6);
  request.options.limits.max_seconds = 0.05;
  auto start = std::chrono::steady_clock::now();
  auto degraded = ExploreWithDegradation(navigator_, request);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  // The acceptance bar: a degraded response, with a populated report, in
  // under twice the deadline — the ladder slices one budget, it does not
  // stack budgets.
  EXPECT_LT(elapsed, 0.1);
  EXPECT_TRUE(degraded->report.degraded);
  ASSERT_FALSE(degraded->report.rungs.empty());
  EXPECT_TRUE(degraded->report.rungs[0].attempted);
  EXPECT_FALSE(degraded->report.rungs[0].outcome.ok());
  EXPECT_GT(degraded->report.rungs[0].seconds_budget, 0.0);
  // Some payload survived: a partial graph, partial top-k, or a count.
  EXPECT_TRUE((degraded->response != nullptr &&
               (degraded->response->generation.has_value() ||
                degraded->response->ranked.has_value())) ||
              degraded->count.has_value());
  if (degraded->response != nullptr &&
      degraded->response->generation.has_value()) {
    const GenerationResult& generation = *degraded->response->generation;
    EXPECT_EQ(testing_util::StructureErrors(generation.graph, dataset_.catalog,
                                            dataset_.schedule,
                                            request.options.avoid_courses), "");
    EXPECT_EQ(testing_util::StatsErrors(generation.graph, generation.stats),
              "");
  }
}

TEST_F(DegradationTest, ExhaustedLadderServesBestPartialAnswer) {
  ExplorationRequest request = GoalRequest(6);
  request.options.limits.max_nodes = 200;  // kills the graph rungs...
  auto degraded = ExploreWithDegradation(navigator_, request);
  // ...and the inherited cap kills counting too (200 distinct statuses).
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->report.degraded);
  EXPECT_TRUE(degraded->report.exhausted);
  ASSERT_NE(degraded->response, nullptr);
  ASSERT_TRUE(degraded->response->generation.has_value());
  const GenerationResult& generation = *degraded->response->generation;
  EXPECT_TRUE(generation.termination.IsResourceExhausted());
  EXPECT_LE(generation.graph.num_nodes(), 201);
  EXPECT_EQ(testing_util::StructureErrors(generation.graph, dataset_.catalog,
                                          dataset_.schedule,
                                          request.options.avoid_courses), "");
  for (const DegradationRung& rung : degraded->report.rungs) {
    if (rung.attempted) {
      EXPECT_FALSE(rung.outcome.ok());
    }
  }
}

TEST_F(DegradationTest, CancellationPropagatesInsteadOfDegrading) {
  ExplorationRequest request = GoalRequest(5);
  request.options.cancel = CancellationToken::Cancellable();
  request.options.cancel.RequestCancel();
  auto degraded = ExploreWithDegradation(navigator_, request);
  EXPECT_TRUE(degraded.status().IsCancelled())
      << degraded.status().ToString();
}

TEST_F(DegradationTest, MalformedRequestsPropagateInsteadOfDegrading) {
  ExplorationRequest request = GoalRequest(4);
  request.goal = nullptr;  // goal-driven without a goal
  auto degraded = ExploreWithDegradation(navigator_, request);
  EXPECT_FALSE(degraded.ok());
  EXPECT_FALSE(degraded.status().IsResourceExhausted());
  EXPECT_FALSE(degraded.status().IsDeadlineExceeded());
}

TEST_F(DegradationTest, RankedRequestsFallBackToSmallerK) {
  ExplorationRequest request = GoalRequest(5);
  request.type = TaskType::kRanked;
  auto ranking = std::make_shared<TimeRanking>();
  request.ranking = ranking;
  request.top_k = 1000;  // unreachable under a 500-node cap
  request.options.limits.max_nodes = 500;
  DegradationPolicy policy;
  policy.count_max_nodes = 1 << 20;
  auto degraded = ExploreWithDegradation(navigator_, request, policy);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->report.degraded);
  EXPECT_FALSE(degraded->report.exhausted);
  // The full-k rung fell; the report walked the small-k rung on the way to
  // whichever fallback answered (small k or counting).
  ASSERT_GE(degraded->report.rungs.size(), 2u);
  EXPECT_TRUE(degraded->report.rungs[0].outcome.IsResourceExhausted());
  EXPECT_EQ(degraded->report.rungs[1].level,
            DegradationLevel::kRankedSmallK);
  if (degraded->report.level_served == DegradationLevel::kRankedSmallK) {
    ASSERT_NE(degraded->response, nullptr);
    ASSERT_TRUE(degraded->response->ranked.has_value());
    EXPECT_LE(degraded->response->ranked->paths.size(), 3u);
  } else {
    EXPECT_EQ(degraded->report.level_served, DegradationLevel::kCountOnly);
    EXPECT_TRUE(degraded->count.has_value());
  }
}

TEST_F(DegradationTest, SessionExploreDegradedSurfacesTheReport) {
  ExplorationSession session(&dataset_.catalog, &dataset_.schedule,
                             dataset_.cs_major,
                             {data::StartTermForSpan(4),
                              dataset_.catalog.NewCourseSet()},
                             end_);
  auto degraded = session.ExploreDegraded();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->report.degraded);
  ASSERT_NE(degraded->response, nullptr);
  EXPECT_TRUE(degraded->response->generation.has_value());

  TimeRanking ranking;
  auto ranked = session.TopKDegraded(ranking, 3);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_NE(ranked->response, nullptr);
  ASSERT_TRUE(ranked->response->ranked.has_value());
  EXPECT_LE(ranked->response->ranked->paths.size(), 3u);
}

}  // namespace
}  // namespace coursenav
