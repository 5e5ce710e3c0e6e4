// The planner/executor pipeline's contracts (ctest label `plan`):
//
//  - Golden equivalence: the legacy Generate*Paths facades and a request
//    run directly through Planner::Lower + Executor::Run produce
//    field-by-field identical graphs, stats, and path order — on the
//    Figure 3 fixture and the Brandeis catalog, at 0/1/4 threads.
//  - Plan shape: each task type lowers to its documented operator chain,
//    and the serial/parallel decision is made by the planner alone.
//  - The ranked-serial note: a ranked request asking for threads gets an
//    explicit plan note instead of a silent ignore.
//  - JSON round-trip: ExplorationRequestFromJson/ToJson are lossless for
//    declarative requests, and ToJson refuses in-memory-only requests.
//  - Degradation rewrites: each ladder rung is a plan rewrite with the
//    service ladder's historical applicability errors.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
#include "data/brandeis_cs.h"
#include "expr/parser.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "plan/request.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"
#include "util/json.h"

namespace coursenav {
namespace {

using testing_util::GraphDifference;
using testing_util::StatsDifference;

const std::vector<int> kThreadCounts = {0, 1, 4};

std::shared_ptr<const Goal> MakeExprGoal(const std::string& spec,
                                         const Catalog& catalog) {
  auto parsed = expr::ParseBoolExpr(spec);
  if (!parsed.ok()) std::abort();
  auto goal = ExprGoal::Create(*parsed, catalog);
  if (!goal.ok()) std::abort();
  return *goal;
}

/// Runs `request` straight through the pipeline (no facade) and returns
/// the response.
ExplorationResponse RunDirect(const Catalog& catalog,
                              const OfferingSchedule& schedule,
                              const ExplorationRequest& request) {
  auto lowered = plan::Planner::Lower(request);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  plan::Executor executor(&catalog, &schedule);
  auto response = executor.Run(*lowered);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

// ---------------------------------------------------------------------------
// Golden equivalence: facade vs direct pipeline execution.
// ---------------------------------------------------------------------------

TEST(PlanGoldenTest, DeadlineFacadeMatchesPipelineOnFigure3) {
  testing_util::Figure3Fixture fixture;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto facade = GenerateDeadlineDrivenPaths(fixture.catalog,
                                              fixture.schedule,
                                              fixture.FreshStudent(),
                                              fixture.spring13, options);
    ASSERT_TRUE(facade.ok()) << facade.status().ToString();

    ExplorationRequest request;
    request.start = fixture.FreshStudent();
    request.end_term = fixture.spring13;
    request.type = TaskType::kDeadlineDriven;
    request.options = options;
    ExplorationResponse direct =
        RunDirect(fixture.catalog, fixture.schedule, request);
    ASSERT_TRUE(direct.generation.has_value());
    EXPECT_EQ(GraphDifference(facade->graph, direct.generation->graph), "");
    EXPECT_EQ(StatsDifference(facade->stats, direct.generation->stats), "");
    EXPECT_EQ(facade->termination.ToString(),
              direct.generation->termination.ToString());
  }
}

TEST(PlanGoldenTest, GoalFacadeMatchesPipelineOnFigure3) {
  testing_util::Figure3Fixture fixture;
  std::shared_ptr<const Goal> goal =
      MakeExprGoal("11A and 21A", fixture.catalog);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto facade = GenerateGoalDrivenPaths(fixture.catalog, fixture.schedule,
                                          fixture.FreshStudent(),
                                          fixture.spring13, *goal, options);
    ASSERT_TRUE(facade.ok()) << facade.status().ToString();

    ExplorationRequest request;
    request.start = fixture.FreshStudent();
    request.end_term = fixture.spring13;
    request.type = TaskType::kGoalDriven;
    request.goal = goal;
    request.options = options;
    ExplorationResponse direct =
        RunDirect(fixture.catalog, fixture.schedule, request);
    ASSERT_TRUE(direct.generation.has_value());
    EXPECT_EQ(GraphDifference(facade->graph, direct.generation->graph), "");
    EXPECT_EQ(StatsDifference(facade->stats, direct.generation->stats), "");
  }
}

TEST(PlanGoldenTest, GoalFacadeMatchesPipelineOnBrandeisCatalog) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};
  Term end = data::EvaluationEndTerm();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto facade =
        GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule, start, end,
                                *dataset.cs_major, options);
    ASSERT_TRUE(facade.ok()) << facade.status().ToString();

    ExplorationRequest request;
    request.start = start;
    request.end_term = end;
    request.type = TaskType::kGoalDriven;
    request.goal = dataset.cs_major;
    request.options = options;
    ExplorationResponse direct =
        RunDirect(dataset.catalog, dataset.schedule, request);
    ASSERT_TRUE(direct.generation.has_value());
    EXPECT_EQ(GraphDifference(facade->graph, direct.generation->graph), "");
    EXPECT_EQ(StatsDifference(facade->stats, direct.generation->stats), "");
  }
}

TEST(PlanGoldenTest, RankedFacadeMatchesPipelinePathOrder) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};
  Term end = data::EvaluationEndTerm();
  TimeRanking ranking;
  // Thread counts included on purpose: ranked runs serial at any setting,
  // and the emitted path order must not depend on it.
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto facade =
        GenerateRankedPaths(dataset.catalog, dataset.schedule, start, end,
                            *dataset.cs_major, ranking, 5, options);
    ASSERT_TRUE(facade.ok()) << facade.status().ToString();

    ExplorationRequest request;
    request.start = start;
    request.end_term = end;
    request.type = TaskType::kRanked;
    request.goal = dataset.cs_major;
    request.ranking = std::shared_ptr<const RankingFunction>(
        std::shared_ptr<const RankingFunction>(), &ranking);
    request.top_k = 5;
    request.options = options;
    ExplorationResponse direct =
        RunDirect(dataset.catalog, dataset.schedule, request);
    ASSERT_TRUE(direct.ranked.has_value());

    ASSERT_EQ(facade->paths.size(), direct.ranked->paths.size());
    for (size_t i = 0; i < facade->paths.size(); ++i) {
      SCOPED_TRACE("path " + std::to_string(i));
      EXPECT_TRUE(facade->paths[i] == direct.ranked->paths[i]);
    }
    EXPECT_EQ(StatsDifference(facade->stats, direct.ranked->stats), "");
    EXPECT_EQ(facade->termination.ToString(),
              direct.ranked->termination.ToString());
  }
}

// ---------------------------------------------------------------------------
// Plan shape and the serial/parallel decision.
// ---------------------------------------------------------------------------

std::vector<plan::OperatorKind> Kinds(const plan::ExplorationPlan& plan) {
  std::vector<plan::OperatorKind> kinds;
  for (const plan::PlanOperator& op : plan.ops) kinds.push_back(op.kind);
  return kinds;
}

TEST(PlannerTest, DeadlinePlanIsSourceExpand) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  auto plan = plan::Planner::Lower(request);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Kinds(*plan),
            (std::vector<plan::OperatorKind>{plan::OperatorKind::kSource,
                                             plan::OperatorKind::kExpand}));
  EXPECT_FALSE(plan->parallel);
  EXPECT_TRUE(plan->notes.empty());
}

TEST(PlannerTest, ThreadedDeadlinePlanIsParallel) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.options.num_threads = 4;
  auto plan = plan::Planner::Lower(request);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->parallel);
  EXPECT_EQ(plan->workers, 4);
}

TEST(PlannerTest, GoalPlanAddsPrune) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kGoalDriven;
  request.goal = MakeExprGoal("11A", fixture.catalog);
  auto plan = plan::Planner::Lower(request);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Kinds(*plan),
            (std::vector<plan::OperatorKind>{plan::OperatorKind::kSource,
                                             plan::OperatorKind::kExpand,
                                             plan::OperatorKind::kPrune}));
}

TEST(PlannerTest, RankedPlanWithFiltersHasFullChain) {
  testing_util::Figure3Fixture fixture;
  TimeRanking ranking;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kRanked;
  request.goal = MakeExprGoal("11A", fixture.catalog);
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), &ranking);
  request.top_k = 3;
  request.filters.max_skips = 0;
  auto plan = plan::Planner::Lower(request);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Kinds(*plan),
            (std::vector<plan::OperatorKind>{
                plan::OperatorKind::kSource, plan::OperatorKind::kExpand,
                plan::OperatorKind::kPrune, plan::OperatorKind::kRank,
                plan::OperatorKind::kLimit, plan::OperatorKind::kFilter}));
  std::string description = plan->Describe();
  EXPECT_NE(description.find("Rank(ranking=time)"), std::string::npos);
  EXPECT_NE(description.find("Limit(k=3)"), std::string::npos);
}

/// The pinning test for the old silent-ignore bug: a ranked request with
/// num_threads set must produce a serial plan carrying an explicit note,
/// not silently drop the setting.
TEST(PlannerTest, RankedPlanNotesIgnoredThreads) {
  testing_util::Figure3Fixture fixture;
  TimeRanking ranking;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kRanked;
  request.goal = MakeExprGoal("11A", fixture.catalog);
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), &ranking);
  request.options.num_threads = 4;
  auto plan = plan::Planner::Lower(request);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->parallel);
  ASSERT_EQ(plan->notes.size(), 1u);
  EXPECT_NE(plan->notes[0].find("ranked runs serial"), std::string::npos);
  EXPECT_NE(plan->notes[0].find("num_threads=4"), std::string::npos);
  EXPECT_NE(plan->Describe().find("ranked runs serial"), std::string::npos);

  // Without threads there is nothing to note.
  request.options.num_threads = 0;
  auto quiet = plan::Planner::Lower(request);
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->notes.empty());
}

TEST(PlannerTest, StructuralErrorsMatchLegacyMessages) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;

  request.type = TaskType::kGoalDriven;
  auto no_goal = plan::Planner::Lower(request);
  ASSERT_FALSE(no_goal.ok());
  EXPECT_EQ(no_goal.status().message(),
            "goal-driven exploration requires a goal");

  request.type = TaskType::kRanked;
  auto ranked_no_goal = plan::Planner::Lower(request);
  ASSERT_FALSE(ranked_no_goal.ok());
  EXPECT_EQ(ranked_no_goal.status().message(),
            "ranked exploration requires a goal");

  request.goal = MakeExprGoal("11A", fixture.catalog);
  auto no_ranking = plan::Planner::Lower(request);
  ASSERT_FALSE(no_ranking.ok());
  EXPECT_EQ(no_ranking.status().message(),
            "ranked exploration requires a ranking function");
}

TEST(ExecutorTest, PreservesLegacyErrorOrder) {
  testing_util::Figure3Fixture fixture;
  TimeRanking ranking;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kRanked;
  request.goal = MakeExprGoal("11A", fixture.catalog);
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), &ranking);

  // Window errors surface before the k check, as the ranked generator
  // always reported them.
  request.top_k = 0;
  request.end_term = fixture.fall11;
  auto window = plan::Execute(fixture.catalog, fixture.schedule, request);
  ASSERT_FALSE(window.ok());
  EXPECT_EQ(window.status().message(),
            "end semester must be after the start");

  request.end_term = fixture.spring13;
  auto bad_k = plan::Execute(fixture.catalog, fixture.schedule, request);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().message(), "k must be >= 1");
}

// ---------------------------------------------------------------------------
// JSON round-trip.
// ---------------------------------------------------------------------------

constexpr const char* kRequestDocument = R"json({
  "start": {"term": "Fall 2011", "completed": ["29A"]},
  "end_term": "Spring 2013",
  "type": "ranked",
  "goal": "11A and 21A",
  "ranking": "time",
  "top_k": 4,
  "options": {
    "max_courses_per_term": 2,
    "avoid": [],
    "allow_voluntary_skip": true,
    "num_threads": 2,
    "limits": {"max_nodes": 1000, "max_memory_bytes": 0, "max_seconds": 0}
  },
  "filters": {"max_term_hours": 30, "max_skips": 1},
  "degradation": {
    "ladder": ["full", "ranked-small-k", "count-only"],
    "time_fraction": 0.25,
    "degraded_top_k": 2,
    "degraded_max_nodes": 500,
    "count_max_nodes": 10000
  }
})json";

TEST(RequestJsonTest, RoundTripIsLossless) {
  testing_util::Figure3Fixture fixture;
  auto parsed_doc = JsonValue::Parse(kRequestDocument);
  ASSERT_TRUE(parsed_doc.ok()) << parsed_doc.status().ToString();
  auto request = ExplorationRequestFromJson(*parsed_doc, fixture.catalog);
  ASSERT_TRUE(request.ok()) << request.status().ToString();

  EXPECT_EQ(request->start.term.ToString(), "Fall 2011");
  EXPECT_TRUE(request->start.completed.test(fixture.c29a));
  EXPECT_EQ(request->end_term.ToString(), "Spring 2013");
  EXPECT_EQ(request->type, TaskType::kRanked);
  ASSERT_NE(request->goal, nullptr);
  ASSERT_NE(request->ranking, nullptr);
  EXPECT_EQ(request->ranking->name(), "time");
  EXPECT_EQ(request->top_k, 4);
  EXPECT_EQ(request->options.max_courses_per_term, 2);
  EXPECT_TRUE(request->options.allow_voluntary_skip);
  EXPECT_EQ(request->options.num_threads, 2);
  EXPECT_EQ(request->options.limits.max_nodes, 1000);
  EXPECT_EQ(request->filters.max_term_hours, 30.0);
  EXPECT_EQ(request->filters.max_skips, 1);
  ASSERT_TRUE(request->degradation.has_value());
  EXPECT_EQ(request->degradation->ladder.size(), 3u);
  EXPECT_EQ(request->degradation->ladder[1],
            DegradationLevel::kRankedSmallK);
  EXPECT_EQ(request->degradation->time_fraction, 0.25);
  EXPECT_EQ(request->degradation->degraded_top_k, 2);
  EXPECT_EQ(request->degradation->degraded_max_nodes, 500);
  EXPECT_EQ(request->degradation->count_max_nodes, 10000);

  // To JSON and back: the canonical serialization is a fixed point.
  auto serialized = ExplorationRequestToJson(*request, fixture.catalog);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  auto reparsed = ExplorationRequestFromJson(*serialized, fixture.catalog);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto reserialized = ExplorationRequestToJson(*reparsed, fixture.catalog);
  ASSERT_TRUE(reserialized.ok());
  EXPECT_EQ(serialized->Dump(2), reserialized->Dump(2));
}

TEST(RequestJsonTest, ParsedRequestExecutesLikeItsHandBuiltTwin) {
  testing_util::Figure3Fixture fixture;
  auto doc = JsonValue::Parse(
      R"({"start": {"term": "Fall 2011"}, "end_term": "Spring 2013",
          "type": "goal", "goal": "11A and 21A"})");
  ASSERT_TRUE(doc.ok());
  auto request = ExplorationRequestFromJson(*doc, fixture.catalog);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto from_json =
      plan::Execute(fixture.catalog, fixture.schedule, *request);
  ASSERT_TRUE(from_json.ok()) << from_json.status().ToString();

  ExplorationRequest twin;
  twin.start = fixture.FreshStudent();
  twin.end_term = fixture.spring13;
  twin.type = TaskType::kGoalDriven;
  twin.goal = MakeExprGoal("11A and 21A", fixture.catalog);
  auto built = plan::Execute(fixture.catalog, fixture.schedule, twin);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(GraphDifference(from_json->generation->graph,
                            built->generation->graph),
            "");
}

TEST(RequestJsonTest, InMemoryOnlyRequestsRefuseToSerialize) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kGoalDriven;
  request.goal = MakeExprGoal("11A", fixture.catalog);  // no goal_spec
  auto serialized = ExplorationRequestToJson(request, fixture.catalog);
  ASSERT_FALSE(serialized.ok());
  EXPECT_EQ(serialized.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestJsonTest, RejectsUnknownRankingAndType) {
  testing_util::Figure3Fixture fixture;
  auto bad_ranking = JsonValue::Parse(
      R"({"start": {"term": "Fall 2011"}, "end_term": "Spring 2013",
          "type": "ranked", "goal": "11A", "ranking": "reliability"})");
  ASSERT_TRUE(bad_ranking.ok());
  auto request = ExplorationRequestFromJson(*bad_ranking, fixture.catalog);
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("unknown ranking"),
            std::string::npos);

  auto bad_type = JsonValue::Parse(
      R"({"start": {"term": "Fall 2011"}, "end_term": "Spring 2013",
          "type": "speedrun"})");
  ASSERT_TRUE(bad_type.ok());
  EXPECT_FALSE(
      ExplorationRequestFromJson(*bad_type, fixture.catalog).ok());
}

TEST(RequestJsonTest, RejectsUnknownFields) {
  // A request file is held to the server's schema: a misspelled key is an
  // error, not a silently taken default. Top-level keys are checked first.
  testing_util::Figure3Fixture fixture;
  auto typo = JsonValue::Parse(
      R"({"start": {"term": "Fall 2011"}, "end_term": "Spring 2013",
          "type": "goal", "goal": "11A", "top-k": 2,
          "config": {"enable_time_pruning": false}})");
  ASSERT_TRUE(typo.ok());
  auto request = ExplorationRequestFromJson(*typo, fixture.catalog);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(request.status().message(), "unknown field 'top-k' in request");

  // The removed minimum-selection switch is an unknown field too.
  auto removed = JsonValue::Parse(
      R"({"start": {"term": "Fall 2011"}, "end_term": "Spring 2013",
          "type": "goal", "goal": "11A",
          "config": {"enforce_min_selection": false}})");
  ASSERT_TRUE(removed.ok());
  request = ExplorationRequestFromJson(*removed, fixture.catalog);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().message(),
            "unknown field 'enforce_min_selection' in config");
}

// ---------------------------------------------------------------------------
// Degradation rungs as plan rewrites.
// ---------------------------------------------------------------------------

TEST(RewriteForDegradationTest, FullRungIsIdentity) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.options.limits.max_nodes = 123;
  DegradationPolicy policy;
  policy.degraded_max_nodes = 7;
  auto rewritten = plan::RewriteForDegradation(
      request, DegradationLevel::kFull, policy);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->type, TaskType::kDeadlineDriven);
  EXPECT_EQ(rewritten->options.limits.max_nodes, 123);
}

TEST(RewriteForDegradationTest, AggressivePruningNeedsAGoal) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  DegradationPolicy policy;
  auto rewritten = plan::RewriteForDegradation(
      request, DegradationLevel::kAggressivePruning, policy);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rewritten.status().message(),
            "aggressive pruning needs a goal-driven request");
}

TEST(RewriteForDegradationTest, AggressivePruningForcesEveryStrategy) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kGoalDriven;
  request.goal = MakeExprGoal("11A", fixture.catalog);
  DegradationPolicy policy;
  policy.degraded_max_nodes = 50;
  auto rewritten = plan::RewriteForDegradation(
      request, DegradationLevel::kAggressivePruning, policy);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->type, TaskType::kGoalDriven);
  EXPECT_TRUE(rewritten->config.enable_time_pruning);
  EXPECT_TRUE(rewritten->config.enable_availability_pruning);
  EXPECT_TRUE(rewritten->config.cache_availability_checks);
  EXPECT_EQ(rewritten->options.limits.max_nodes, 50);
}

TEST(RewriteForDegradationTest, RankedSmallKCapsK) {
  testing_util::Figure3Fixture fixture;
  TimeRanking ranking;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kRanked;
  request.goal = MakeExprGoal("11A", fixture.catalog);
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), &ranking);
  request.top_k = 10;
  DegradationPolicy policy;
  policy.degraded_top_k = 3;
  auto rewritten = plan::RewriteForDegradation(
      request, DegradationLevel::kRankedSmallK, policy);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->type, TaskType::kRanked);
  EXPECT_EQ(rewritten->top_k, 3);

  request.ranking = nullptr;
  auto no_ranking = plan::RewriteForDegradation(
      request, DegradationLevel::kRankedSmallK, policy);
  ASSERT_FALSE(no_ranking.ok());
  EXPECT_EQ(no_ranking.status().message(),
            "ranked fallback needs a goal and a ranking");
}

TEST(RewriteForDegradationTest, CountOnlyAppliesCountCap) {
  testing_util::Figure3Fixture fixture;
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.options.limits.max_nodes = 123;
  DegradationPolicy policy;
  policy.count_max_nodes = 9999;
  auto rewritten = plan::RewriteForDegradation(
      request, DegradationLevel::kCountOnly, policy);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->options.limits.max_nodes, 9999);
}

}  // namespace
}  // namespace coursenav
