#include "service/navigator.h"

#include <gtest/gtest.h>

#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::Figure3Fixture;

class NavigatorTest : public ::testing::Test {
 protected:
  NavigatorTest() : navigator_(&fix_.catalog, &fix_.schedule) {}

  std::shared_ptr<const Goal> AllThree() {
    auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix_.catalog);
    EXPECT_TRUE(goal.ok());
    return *goal;
  }

  Figure3Fixture fix_;
  CourseNavigator navigator_;
};

TEST_F(NavigatorTest, DeadlineRequestDispatches) {
  ExplorationRequest request;
  request.start = fix_.FreshStudent();
  request.end_term = fix_.spring13;
  request.type = TaskType::kDeadlineDriven;
  auto response = navigator_.Explore(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE((*response)->generation.has_value());
  EXPECT_FALSE((*response)->ranked.has_value());
  EXPECT_EQ((*response)->generation->graph.num_nodes(), 9);
}

TEST_F(NavigatorTest, GoalRequestDispatches) {
  ExplorationRequest request;
  request.start = fix_.FreshStudent();
  request.end_term = Term(Season::kFall, 2012);
  request.type = TaskType::kGoalDriven;
  request.goal = AllThree();
  auto response = navigator_.Explore(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE((*response)->generation.has_value());
  EXPECT_EQ((*response)->generation->stats.goal_paths, 1);
}

TEST_F(NavigatorTest, RankedRequestDispatches) {
  ExplorationRequest request;
  request.start = fix_.FreshStudent();
  request.end_term = fix_.spring13;
  request.type = TaskType::kRanked;
  request.goal = AllThree();
  request.ranking = std::make_shared<TimeRanking>();
  request.top_k = 2;
  auto response = navigator_.Explore(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE((*response)->ranked.has_value());
  EXPECT_FALSE((*response)->generation.has_value());
  EXPECT_LE((*response)->ranked->paths.size(), 2u);
  EXPECT_FALSE((*response)->ranked->paths.empty());
}

TEST_F(NavigatorTest, MissingGoalRejected) {
  ExplorationRequest request;
  request.start = fix_.FreshStudent();
  request.end_term = fix_.spring13;
  request.type = TaskType::kGoalDriven;
  EXPECT_TRUE(navigator_.Explore(request).status().IsInvalidArgument());
  request.type = TaskType::kRanked;
  EXPECT_TRUE(navigator_.Explore(request).status().IsInvalidArgument());
}

TEST_F(NavigatorTest, MissingRankingRejected) {
  ExplorationRequest request;
  request.start = fix_.FreshStudent();
  request.end_term = fix_.spring13;
  request.type = TaskType::kRanked;
  request.goal = AllThree();
  EXPECT_TRUE(navigator_.Explore(request).status().IsInvalidArgument());
}

TEST_F(NavigatorTest, CountingWrappers) {
  ExplorationOptions options;
  auto deadline = navigator_.CountDeadline(fix_.FreshStudent(), fix_.spring13,
                                           options);
  ASSERT_TRUE(deadline.ok());
  EXPECT_EQ(deadline->total_paths, 3u);
  auto goal = AllThree();
  auto counted = navigator_.CountGoal(fix_.FreshStudent(),
                                      Term(Season::kFall, 2012), *goal,
                                      options);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->goal_paths, 1u);
}

TEST_F(NavigatorTest, AccessorsExposeDataset) {
  EXPECT_EQ(navigator_.catalog().size(), 3);
  EXPECT_FALSE(navigator_.schedule().empty());
}

}  // namespace
}  // namespace coursenav
