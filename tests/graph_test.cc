#include "graph/learning_graph.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "graph/export.h"
#include "graph/path.h"

namespace coursenav {
namespace {

class LearningGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* code : {"A", "B", "C"}) {
      Course c;
      c.code = code;
      ASSERT_TRUE(catalog_.AddCourse(std::move(c)).ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  DynamicBitset Bits(std::initializer_list<int> ids) {
    DynamicBitset b(catalog_.size());
    for (int id : ids) b.set(id);
    return b;
  }

  Catalog catalog_;
};

TEST(LearningNodeLayoutTest, NodeFitsItsByteBudget) {
  // Three 24-byte bitsets (X, Y and the inbound W), two costs, the term,
  // the parent id and the child range: 105 bytes of fields, 112 padded.
  static_assert(sizeof(LearningNode) <= 112);
  EXPECT_LE(sizeof(LearningNode), 112u);
}

TEST_F(LearningGraphTest, RootAndChildren) {
  LearningGraph graph;
  Term f12(Season::kFall, 2012);
  NodeId root = graph.AddRoot(f12, Bits({}), Bits({0, 1}));
  EXPECT_EQ(root, 0);
  EXPECT_EQ(graph.num_nodes(), 1);
  EXPECT_EQ(graph.root(), root);

  NodeId child = graph.AddChild(root, Bits({0}), Bits({0}), Bits({2}), 1.5);
  EXPECT_EQ(graph.num_nodes(), 2);
  EXPECT_EQ(graph.num_edges(), 1);
  const LearningNode& node = graph.node(child);
  EXPECT_EQ(node.term, f12.Next());
  EXPECT_EQ(node.completed.ToIndices(), std::vector<int>{0});
  EXPECT_DOUBLE_EQ(node.path_cost, 1.5);
  EXPECT_EQ(node.parent, root);
  EXPECT_EQ(node.selection.ToIndices(), std::vector<int>{0});
  ASSERT_EQ(graph.node(root).out_edges.size(), 1u);
  const LearningEdge edge = graph.edge(*graph.node(root).out_edges.begin());
  EXPECT_EQ(edge.from, root);
  EXPECT_EQ(edge.to, child);
  EXPECT_EQ(&edge.selection, &node.selection);
  EXPECT_DOUBLE_EQ(edge.cost, 1.5);
}

TEST_F(LearningGraphTest, PathCostAccumulates) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}), Bits({0}));
  NodeId a = graph.AddChild(root, Bits({0}), Bits({0}), Bits({1}), 2.0);
  NodeId b = graph.AddChild(a, Bits({1}), Bits({0, 1}), Bits({}), 3.0);
  EXPECT_DOUBLE_EQ(graph.node(b).path_cost, 5.0);
}

TEST_F(LearningGraphTest, GoalAndLeafQueries) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}), Bits({0}));
  NodeId a = graph.AddChild(root, Bits({0}), Bits({0}), Bits({}));
  NodeId b = graph.AddChild(root, Bits({1}), Bits({1}), Bits({}));
  graph.MarkGoal(b);
  EXPECT_EQ(graph.GoalNodes(), std::vector<NodeId>{b});
  EXPECT_EQ(graph.LeafNodes(), (std::vector<NodeId>{a, b}));
  EXPECT_TRUE(graph.node(b).is_goal);
  EXPECT_FALSE(graph.node(a).is_goal);
}

TEST_F(LearningGraphTest, MemoryUsageGrows) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}), Bits({0}));
  size_t before = graph.MemoryUsage();
  graph.AddChild(root, Bits({0}), Bits({0}), Bits({}));
  EXPECT_GT(graph.MemoryUsage(), before);
}

TEST_F(LearningGraphTest, PathExtraction) {
  LearningGraph graph;
  Term f12(Season::kFall, 2012);
  NodeId root = graph.AddRoot(f12, Bits({}), Bits({0, 1}));
  NodeId mid = graph.AddChild(root, Bits({0, 1}), Bits({0, 1}), Bits({2}), 1);
  NodeId leaf = graph.AddChild(mid, Bits({2}), Bits({0, 1, 2}), Bits({}), 1);

  LearningPath path = LearningPath::FromGraph(graph, leaf);
  EXPECT_EQ(path.start_term(), f12);
  EXPECT_TRUE(path.start_completed().empty());
  ASSERT_EQ(path.steps().size(), 2u);
  EXPECT_EQ(path.steps()[0].term, f12);
  EXPECT_EQ(path.steps()[0].selection.ToIndices(), (std::vector<int>{0, 1}));
  EXPECT_EQ(path.steps()[1].term, f12.Next());
  EXPECT_EQ(path.steps()[1].selection.ToIndices(), std::vector<int>{2});
  EXPECT_EQ(path.Length(), 2);
  EXPECT_DOUBLE_EQ(path.cost(), 2.0);
  EXPECT_EQ(path.FinalCompleted().ToIndices(), (std::vector<int>{0, 1, 2}));
}

TEST_F(LearningGraphTest, PathOfRootIsEmpty) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({0}), Bits({}));
  LearningPath path = LearningPath::FromGraph(graph, root);
  EXPECT_EQ(path.Length(), 0);
  EXPECT_EQ(path.FinalCompleted().ToIndices(), std::vector<int>{0});
}

TEST_F(LearningGraphTest, DotExportMentionsNodesAndSelections) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}), Bits({0}));
  NodeId leaf = graph.AddChild(root, Bits({0}), Bits({0}), Bits({}));
  graph.MarkGoal(leaf);
  std::string dot = LearningGraphToDot(graph, catalog_);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Fall 2012"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("{A}"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST_F(LearningGraphTest, JsonExportRoundTripsStructure) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}),
                              Bits({0, 1}));
  graph.AddChild(root, Bits({1}), Bits({1}), Bits({}));
  JsonValue doc = LearningGraphToJson(graph, catalog_);
  auto reparsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Get("nodes")->array().size(), 2u);
  EXPECT_EQ(reparsed->Get("edges")->array().size(), 1u);
  auto edge = reparsed->Get("edges")->array()[0];
  EXPECT_EQ(*edge.Get("selection")->array()[0].GetString(), "B");
}

TEST_F(LearningGraphTest, PathJsonExport) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}), Bits({0}));
  NodeId leaf = graph.AddChild(root, Bits({0}), Bits({0}), Bits({}), 2.5);
  LearningPath path = LearningPath::FromGraph(graph, leaf);
  JsonValue doc = LearningPathToJson(path, catalog_);
  EXPECT_EQ(*doc.Get("start_term")->GetString(), "Fall 2012");
  EXPECT_DOUBLE_EQ(*doc.Get("cost")->GetNumber(), 2.5);
  EXPECT_EQ(doc.Get("steps")->array().size(), 1u);
  JsonValue multi = LearningPathsToJson({path, path}, catalog_);
  EXPECT_EQ(multi.array().size(), 2u);
}

}  // namespace
}  // namespace coursenav
