// The ranked search against the eager best-first search it replaced. The
// reference below materializes every kept child of a popped status at once
// and orders its frontier by (f, creation id); the pipeline's partial
// expansion creates a child only when its f is popped. Both must pop the
// same statuses in the same order, so the paths, their order and costs,
// and every tally but the created counts must match, with the pipeline
// creating no more nodes than the reference.

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/schedule_history.h"
#include "core/engine.h"
#include "core/expand.h"
#include "core/ranking.h"
#include "data/brandeis_cs.h"
#include "data/synthetic.h"
#include "graph/learning_graph.h"
#include "graph/path.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

struct EagerResult {
  std::vector<LearningPath> paths;
  ExplorationStats stats;
};

/// The eager best-first top-k search, run to completion (no budgets).
EagerResult EagerTopK(const Catalog& catalog, const OfferingSchedule& schedule,
                      const ExplorationRequest& request) {
  const ExplorationOptions& options = request.options;
  const RankingFunction& ranking = *request.ranking;
  const Goal& goal = *request.goal;
  internal::ExplorationEngine engine(catalog, schedule, options,
                                     request.start.term, request.end_term);
  internal::Expander expander(engine, {&goal, &request.config});
  ExplorationStats& tallies = engine.tallies();
  LearningGraph graph;
  graph.AddRoot(request.start.term, request.start.completed);
  tallies.nodes_created += 1;

  struct Entry {
    double f;
    NodeId node;
  };
  auto later = [](const Entry& a, const Entry& b) {
    return a.f != b.f ? a.f > b.f : a.node > b.node;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> frontier(
      later);
  frontier.push({ranking.RemainingCostLowerBound(
                     request.start.completed, goal,
                     options.max_courses_per_term),
                 graph.root()});

  struct Sink {
    internal::Expander& expander;
    LearningGraph& graph;
    const RankingFunction& ranking;
    const Goal& goal;
    int max_courses_per_term;
    decltype(frontier)& heap;
    NodeId parent = kInvalidNodeId;
    LearningNode* node = nullptr;

    bool NearNodeBudget(size_t) const { return false; }
    bool CheckBudget() const { return true; }
    bool Add(const internal::CandidateBatch& batch, size_t row) {
      expander.UnpackChild(batch, row);
      const double edge_cost =
          ranking.EdgeCost(expander.child_selection(), node->term);
      const double child_cost = ranking.Combine(node->path_cost, edge_cost);
      const double cost_to_go = ranking.RemainingCostLowerBound(
          expander.child_completed(), goal, max_courses_per_term);
      const NodeId child =
          expander.AddChild(graph, 0, parent, node, edge_cost, child_cost).id;
      heap.push({child_cost + cost_to_go, child});
      return true;
    }
  } sink{expander, graph, ranking, goal, options.max_courses_per_term,
         frontier};

  EagerResult result;
  while (!frontier.empty() &&
         static_cast<int>(result.paths.size()) < request.top_k) {
    sink.parent = frontier.top().node;
    frontier.pop();
    sink.node = graph.stable_node_ptr(sink.parent);
    tallies.nodes_expanded += 1;
    const internal::Expansion expansion =
        expander.Expand(sink.node->term, sink.node->completed, sink);
    internal::CountLeaf(expansion, tallies);
    if (expansion == internal::Expansion::kGoal) {
      result.paths.push_back(LearningPath::FromGraph(graph, sink.parent));
    }
  }
  result.stats = tallies;
  return result;
}

/// One catalog, schedule, start and goal, with the four rankings.
struct Instance {
  const Catalog* catalog;
  const OfferingSchedule* schedule;
  EnrollmentStatus start;
  Term end;
  std::shared_ptr<const Goal> goal;
  int max_courses_per_term = ExplorationOptions{}.max_courses_per_term;
};

enum class Ranking { kTime, kWorkload, kBottleneck, kReliability };

std::shared_ptr<const RankingFunction> MakeRanking(
    Ranking ranking, const Instance& instance,
    std::unique_ptr<OfferingProbabilityModel>* model) {
  switch (ranking) {
    case Ranking::kTime:
      return std::make_shared<TimeRanking>();
    case Ranking::kWorkload:
      return std::make_shared<WorkloadRanking>(instance.catalog);
    case Ranking::kBottleneck:
      return std::make_shared<BottleneckWorkloadRanking>(instance.catalog);
    case Ranking::kReliability: {
      // The CLI's model: the schedule as its own history, released one
      // semester past the start.
      ScheduleHistory history;
      history.ImportSchedule(*instance.schedule);
      *model = std::make_unique<OfferingProbabilityModel>(
          instance.schedule, instance.start.term.Next(), std::move(history),
          0.5);
      return std::make_shared<ReliabilityRanking>(model->get());
    }
  }
  return nullptr;
}

/// Runs every k and skip setting of `ranking` on `instance` through both
/// searches and compares them.
void ExpectSameOrder(const Instance& instance, Ranking which) {
  std::unique_ptr<OfferingProbabilityModel> model;
  const std::shared_ptr<const RankingFunction> ranking =
      MakeRanking(which, instance, &model);
  for (bool skip : {false, true}) {
    for (int k : {1, 5, 50}) {
      SCOPED_TRACE(StrFormat("%s k=%d skip=%d", ranking->name().c_str(), k,
                             skip ? 1 : 0));
      ExplorationRequest request;
      request.type = TaskType::kRanked;
      request.start = instance.start;
      request.end_term = instance.end;
      request.goal = instance.goal;
      request.ranking = ranking;
      request.top_k = k;
      request.options.max_courses_per_term = instance.max_courses_per_term;
      request.options.allow_voluntary_skip = skip;

      const EagerResult reference =
          EagerTopK(*instance.catalog, *instance.schedule, request);
      auto response =
          plan::Execute(*instance.catalog, *instance.schedule, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const RankedResult& ranked = *response->ranked;
      ASSERT_TRUE(ranked.termination.ok()) << ranked.termination.ToString();

      ASSERT_EQ(ranked.paths.size(), reference.paths.size());
      for (size_t i = 0; i < ranked.paths.size(); ++i) {
        EXPECT_TRUE(ranked.paths[i] == reference.paths[i]) << "path " << i;
        EXPECT_EQ(ranked.paths[i].cost(), reference.paths[i].cost())
            << "path " << i;
      }
      const ExplorationStats& got = ranked.stats;
      const ExplorationStats& want = reference.stats;
      EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
      EXPECT_EQ(got.terminal_paths, want.terminal_paths);
      EXPECT_EQ(got.goal_paths, want.goal_paths);
      EXPECT_EQ(got.dead_end_paths, want.dead_end_paths);
      EXPECT_EQ(got.pruned_time, want.pruned_time);
      EXPECT_EQ(got.pruned_availability, want.pruned_availability);
      EXPECT_LE(got.nodes_created, want.nodes_created);
      EXPECT_EQ(got.edges_created, got.nodes_created - 1);
    }
  }
}

const Ranking kRankings[] = {Ranking::kTime, Ranking::kWorkload,
                             Ranking::kBottleneck, Ranking::kReliability};

TEST(RankedOrderTest, SyntheticCatalogs) {
  // RankedCorrectnessTest's catalogs: ten courses, the first four the goal.
  for (uint64_t seed : {11, 12, 13, 14}) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    data::SyntheticConfig config;
    config.num_courses = 10;
    config.num_intro_courses = 3;
    config.seed = seed;
    auto bundle = data::BuildSyntheticCatalog(config);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    std::vector<std::string> goal_codes;
    for (int i = 0; i < 4; ++i) {
      goal_codes.push_back(bundle->catalog.course(i).code);
    }
    auto goal = ExprGoal::CompleteAll(goal_codes, bundle->catalog);
    ASSERT_TRUE(goal.ok()) << goal.status().ToString();
    const Instance instance{&bundle->catalog, &bundle->schedule,
                            {config.first_term, bundle->catalog.NewCourseSet()},
                            config.first_term + 4, *goal,
                            /*max_courses_per_term=*/2};
    for (Ranking ranking : kRankings) ExpectSameOrder(instance, ranking);
  }
}

TEST(RankedOrderTest, Figure3) {
  testing_util::Figure3Fixture fix;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok()) << goal.status().ToString();
  const Instance instance{&fix.catalog, &fix.schedule, fix.FreshStudent(),
                          fix.spring13, *goal};
  for (Ranking ranking : kRankings) ExpectSameOrder(instance, ranking);
}

/// The Brandeis CS major from a fresh start `span` semesters before the
/// evaluation deadline, one ranking per test so they run side by side.
class RankedOrderBrandeisTest
    : public ::testing::TestWithParam<std::tuple<int, Ranking>> {
 protected:
  static const data::BrandeisDataset& dataset() {
    static const data::BrandeisDataset brandeis =
        data::BuildBrandeisDataset();
    return brandeis;
  }
};

TEST_P(RankedOrderBrandeisTest, MatchesEagerSearch) {
  const auto [span, ranking] = GetParam();
  const Instance instance{
      &dataset().catalog, &dataset().schedule,
      {data::StartTermForSpan(span), dataset().catalog.NewCourseSet()},
      data::EvaluationEndTerm(), dataset().cs_major};
  ExpectSameOrder(instance, ranking);
}

std::string RankingName(Ranking ranking) {
  switch (ranking) {
    case Ranking::kTime:
      return "Time";
    case Ranking::kWorkload:
      return "Workload";
    case Ranking::kBottleneck:
      return "Bottleneck";
    case Ranking::kReliability:
      return "Reliability";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    Spans, RankedOrderBrandeisTest,
    ::testing::Combine(::testing::Values(4, 5), ::testing::ValuesIn(kRankings)),
    [](const ::testing::TestParamInfo<std::tuple<int, Ranking>>& param) {
      return StrFormat("%dsem", std::get<0>(param.param)) +
             RankingName(std::get<1>(param.param));
    });

}  // namespace
}  // namespace coursenav
