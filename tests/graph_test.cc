#include "graph/learning_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "graph/export.h"
#include "graph/path.h"
#include "tests/test_util.h"
#include "util/chunked_vector.h"
#include "util/random.h"

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
  // Two 24-byte bitsets (X and the inbound W), two costs, the term, the
  // parent id and the child range: 81 bytes of fields, 88 padded. The
  // option set Y is derived when a status is expanded, not stored.
  static_assert(sizeof(LearningNode) == 88);
  EXPECT_EQ(sizeof(LearningNode), 88u);
}

TEST_F(LearningGraphTest, RootAndChildren) {
  LearningGraph graph;
  Term f12(Season::kFall, 2012);
  NodeId root = graph.AddRoot(f12, Bits({}));
  EXPECT_EQ(root, 0);
  EXPECT_EQ(graph.num_nodes(), 1);
  EXPECT_EQ(graph.root(), root);

  NodeId child = graph.AddChild(root, Bits({0}), Bits({0}), 1.5);
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
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}));
  NodeId a = graph.AddChild(root, Bits({0}), Bits({0}), 2.0);
  NodeId b = graph.AddChild(a, Bits({1}), Bits({0, 1}), 3.0);
  EXPECT_DOUBLE_EQ(graph.node(b).path_cost, 5.0);
}

TEST_F(LearningGraphTest, GoalAndLeafQueries) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}));
  NodeId a = graph.AddChild(root, Bits({0}), Bits({0}));
  NodeId b = graph.AddChild(root, Bits({1}), Bits({1}));
  graph.MarkGoal(b);
  EXPECT_EQ(graph.GoalNodes(), std::vector<NodeId>{b});
  EXPECT_EQ(graph.LeafNodes(), (std::vector<NodeId>{a, b}));
  EXPECT_TRUE(graph.node(b).is_goal);
  EXPECT_FALSE(graph.node(a).is_goal);
}

TEST_F(LearningGraphTest, MemoryUsageGrows) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}));
  size_t before = graph.MemoryUsage();
  graph.AddChild(root, Bits({0}), Bits({0}));
  EXPECT_GT(graph.MemoryUsage(), before);
}

TEST_F(LearningGraphTest, PathExtraction) {
  LearningGraph graph;
  Term f12(Season::kFall, 2012);
  NodeId root = graph.AddRoot(f12, Bits({}));
  NodeId mid = graph.AddChild(root, Bits({0, 1}), Bits({0, 1}), 1);
  NodeId leaf = graph.AddChild(mid, Bits({2}), Bits({0, 1, 2}), 1);

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
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({0}));
  LearningPath path = LearningPath::FromGraph(graph, root);
  EXPECT_EQ(path.Length(), 0);
  EXPECT_EQ(path.FinalCompleted().ToIndices(), std::vector<int>{0});
}

TEST_F(LearningGraphTest, DotExportMentionsNodesAndSelections) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}));
  NodeId leaf = graph.AddChild(root, Bits({0}), Bits({0}));
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
  const Term f12(Season::kFall, 2012);
  NodeId root = graph.AddRoot(f12, Bits({}));
  graph.AddChild(root, Bits({1}), Bits({1}));
  OfferingSchedule schedule(catalog_.size());
  ASSERT_TRUE(schedule.AddOffering(0, f12).ok());
  ASSERT_TRUE(schedule.AddOffering(1, f12).ok());
  ASSERT_TRUE(schedule.AddOffering(1, f12.Next()).ok());
  JsonValue doc = LearningGraphToJson(graph, catalog_, schedule, std::nullopt);
  auto reparsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  const JsonValue::Array nodes = reparsed->Get("nodes")->array();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(reparsed->Get("edges")->array().size(), 1u);
  auto edge = reparsed->Get("edges")->array()[0];
  EXPECT_EQ(*edge.Get("selection")->array()[0].GetString(), "B");
  // Option sets are derived: offered in the node's term, not completed...
  EXPECT_EQ(nodes[0].Get("options")->array().size(), 2u);
  EXPECT_TRUE(nodes[1].Get("options")->array().empty());
  // ...and not avoided.
  JsonValue avoiding =
      LearningGraphToJson(graph, catalog_, schedule, Bits({0}));
  const Result<JsonValue> root_options =
      avoiding.Get("nodes")->array()[0].Get("options");
  ASSERT_EQ(root_options->array().size(), 1u);
  EXPECT_EQ(*root_options->array()[0].GetString(), "B");
}

TEST_F(LearningGraphTest, PathJsonExport) {
  LearningGraph graph;
  NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}));
  NodeId leaf = graph.AddChild(root, Bits({0}), Bits({0}), 2.5);
  LearningPath path = LearningPath::FromGraph(graph, leaf);
  JsonValue doc = LearningPathToJson(path, catalog_);
  EXPECT_EQ(*doc.Get("start_term")->GetString(), "Fall 2012");
  EXPECT_DOUBLE_EQ(*doc.Get("cost")->GetNumber(), 2.5);
  EXPECT_EQ(doc.Get("steps")->array().size(), 1u);
  JsonValue multi = LearningPathsToJson({path, path}, catalog_);
  EXPECT_EQ(multi.array().size(), 2u);
}

TEST(ChunkedVectorTest, PushFillsAdoptedChunksBeforeAllocating) {
  using Vector = ChunkedVector<int, 2>;  // four elements per chunk
  Vector source;
  for (int i = 0; i < 6; ++i) source.push_back(i);
  std::unique_ptr<int[]> storage = source.ReleaseChunk(0);
  const int* adopted = storage.get();

  Vector target;
  target.AdoptChunk(std::move(storage));
  target.push_back(10);
  EXPECT_EQ(&target[0], adopted);
  EXPECT_EQ(source[4], 4);  // the source's other chunks stay readable

  target.AdoptChunk(source.ReleaseChunk(1));
  target.FreeUnusedChunks();  // one element: the second chunk is unused
  for (int i = 1; i < 5; ++i) target.push_back(10 + i);
  EXPECT_EQ(target.size(), 5u);
  EXPECT_EQ(target[3], 13);
  EXPECT_EQ(target[4], 14);
}

/// The serial LIFO numbering, replayed by copying into a fresh graph: what
/// `Canonicalize` must produce from `graph` without the copy.
LearningGraph ReferenceReplay(const LearningGraph& graph) {
  LearningGraph out;
  const LearningNode& root = graph.node(graph.root());
  out.AddRoot(root.term, root.completed);
  if (root.is_goal) out.MarkGoal(0);
  std::vector<std::pair<NodeId, NodeId>> worklist{{graph.root(), 0}};
  while (!worklist.empty()) {
    const auto [old_id, new_id] = worklist.back();
    worklist.pop_back();
    for (NodeId old_child : graph.node(old_id).out_edges) {
      const LearningNode& child = graph.node(old_child);
      const NodeId id =
          out.AddChildWithPathCost(new_id, child.selection, child.completed,
                                   child.edge_cost, child.path_cost);
      if (child.is_goal) out.MarkGoal(id);
      worklist.emplace_back(old_child, id);
    }
  }
  return out;
}

// Four shards as four workers would leave them: sizes that end in partial
// chunks, one shard empty, siblings spread over shards, and frontier
// leaves never expanded. The in-place merge must renumber it exactly as
// the copying replay does.
TEST_F(LearningGraphTest, CanonicalizeMatchesReferenceReplay) {
  constexpr std::array<int, 4> kShardSizes = {1500, 0, 700, 2100};
  LearningGraph graph;
  graph.ConfigureShards(static_cast<int>(kShardSizes.size()));
  graph.AddRoot(Term(Season::kFall, 2012), Bits({}));

  struct Frontier {
    NodeId id;
    LearningNode* node;
  };
  std::vector<Frontier> frontier{{0, graph.stable_node_ptr(0)}};
  std::array<int, 4> left = kShardSizes;
  --left[0];  // the root
  Random random(19);
  for (;;) {
    std::vector<int> open;
    for (int s = 0; s < static_cast<int>(left.size()); ++s) {
      if (left[static_cast<size_t>(s)] > 0) open.push_back(s);
    }
    if (open.empty()) break;
    // Expand a random frontier node into up to five children in a random
    // shard, as whichever worker popped or stole it would.
    const int shard = open[random.Uniform(open.size())];
    const size_t pick = random.Uniform(frontier.size());
    const Frontier parent = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    const int children =
        std::min(left[static_cast<size_t>(shard)], random.UniformInt(1, 5));
    for (int c = 0; c < children; ++c) {
      DynamicBitset selection = Bits({});
      if (c > 0) selection.set((c - 1) % 3);
      DynamicBitset completed = parent.node->completed | selection;
      const double edge_cost = c + 0.5;
      LearningGraph::CreatedChild child = graph.AddChildTo(
          shard, parent.id, parent.node, std::move(selection),
          std::move(completed), edge_cost, parent.node->path_cost + edge_cost);
      if (random.Bernoulli(0.1)) child.node->is_goal = true;
      frontier.push_back({child.id, child.node});
    }
    left[static_cast<size_t>(shard)] -= children;
  }
  ASSERT_EQ(graph.num_nodes(), 4300);
  ASSERT_GT(frontier.size(), 1000u);  // unexpanded leaves remain
  graph.CheckInvariants();

  const LearningGraph expected = ReferenceReplay(graph);
  graph.Canonicalize();
  EXPECT_EQ(graph.num_shards(), 1);
  EXPECT_EQ(testing_util::GraphDifference(expected, graph), "");
  EXPECT_EQ(graph.MemoryUsage(), expected.MemoryUsage());
  graph.CheckInvariants();
}

}  // namespace
}  // namespace coursenav
