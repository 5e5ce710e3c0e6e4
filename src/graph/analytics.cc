#include "graph/analytics.h"

#include <algorithm>

#include "util/string_util.h"

namespace coursenav {

GraphAnalytics AnalyzeLearningGraph(const LearningGraph& graph,
                                    const Catalog& catalog) {
  GraphAnalytics analytics;
  analytics.course_path_counts.assign(static_cast<size_t>(catalog.size()), 0);
  if (graph.num_nodes() == 0) return analytics;

  // Bottom-up goal-leaf counts. Children always have larger ids than their
  // parent (nodes are appended during expansion), so one reverse sweep
  // computes every subtree count.
  std::vector<uint64_t> goal_leaves(static_cast<size_t>(graph.num_nodes()),
                                    0);
  for (NodeId id = static_cast<NodeId>(graph.num_nodes()) - 1; id >= 0;
       --id) {
    const LearningNode& node = graph.node(id);
    if (node.out_edges.empty()) {
      goal_leaves[static_cast<size_t>(id)] = node.is_goal ? 1 : 0;
    } else {
      uint64_t total = 0;
      for (EdgeId edge_id : node.out_edges) {
        total += goal_leaves[static_cast<size_t>(graph.edge(edge_id).to)];
      }
      goal_leaves[static_cast<size_t>(id)] = total;
    }
  }
  analytics.goal_path_count = goal_leaves[0];

  // Edge pass (an edge's id is its child's): every goal path through edge
  // (u -> v) elects W(u,v) in u's semester; a path elects a course at most
  // once, so summing per-edge subtree counts gives exact per-course path
  // counts.
  std::map<int, uint64_t> load_weighted;  // term -> sum of |W| over paths
  std::map<int, uint64_t> paths_at_term;  // term -> paths making a choice
  for (EdgeId edge_id = 1; edge_id < graph.num_nodes(); ++edge_id) {
    const LearningEdge edge = graph.edge(edge_id);
    uint64_t through = goal_leaves[static_cast<size_t>(edge.to)];
    if (through == 0) continue;
    edge.selection.ForEach([&](int course) {
      analytics.course_path_counts[static_cast<size_t>(course)] += through;
    });
    int term_index = graph.node(edge.from).term.index();
    load_weighted[term_index] +=
        through * static_cast<uint64_t>(edge.selection.count());
    paths_at_term[term_index] += through;
  }
  for (const auto& [term_index, paths] : paths_at_term) {
    analytics.average_load_by_term[term_index] =
        static_cast<double>(load_weighted[term_index]) /
        static_cast<double>(paths);
  }

  // Length histogram over goal leaves.
  Term root_term = graph.node(graph.root()).term;
  for (NodeId leaf : graph.GoalNodes()) {
    ++analytics.length_histogram[graph.node(leaf).term - root_term];
  }
  return analytics;
}

LearningGraph ExtractGoalSubgraph(const LearningGraph& graph) {
  LearningGraph out;
  if (graph.num_nodes() == 0) return out;

  // Mark every node with a goal node in its subtree (children follow
  // parents in id order, so one reverse sweep suffices).
  std::vector<bool> keep(static_cast<size_t>(graph.num_nodes()), false);
  for (NodeId id = static_cast<NodeId>(graph.num_nodes()) - 1; id >= 0;
       --id) {
    const LearningNode& node = graph.node(id);
    bool keep_this = node.is_goal;
    for (EdgeId edge_id : node.out_edges) {
      if (keep[static_cast<size_t>(graph.edge(edge_id).to)]) {
        keep_this = true;
      }
    }
    keep[static_cast<size_t>(id)] = keep_this;
  }
  if (!keep[0]) return out;

  // Rebuild top-down; parents always precede children in id order, and a
  // node's children hold consecutive ids, so the kept ones are added back
  // to back (the graph's child-range contract).
  std::vector<NodeId> remap(static_cast<size_t>(graph.num_nodes()),
                            kInvalidNodeId);
  const LearningNode& root = graph.node(graph.root());
  remap[0] = out.AddRoot(root.term, root.completed);
  if (root.is_goal) out.MarkGoal(remap[0]);
  for (NodeId id = 1; id < graph.num_nodes(); ++id) {
    if (!keep[static_cast<size_t>(id)]) continue;
    const LearningNode& node = graph.node(id);
    NodeId parent = remap[static_cast<size_t>(node.parent)];
    NodeId copy =
        out.AddChildWithPathCost(parent, node.selection, node.completed,
                                 node.edge_cost, node.path_cost);
    remap[static_cast<size_t>(id)] = copy;
    if (node.is_goal) out.MarkGoal(copy);
  }
  return out;
}

std::vector<CourseId> GraphAnalytics::CoursesByCriticality() const {
  std::vector<CourseId> order;
  for (size_t i = 0; i < course_path_counts.size(); ++i) {
    order.push_back(static_cast<CourseId>(i));
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](CourseId a, CourseId b) {
                     return course_path_counts[static_cast<size_t>(a)] >
                            course_path_counts[static_cast<size_t>(b)];
                   });
  return order;
}

double GraphAnalytics::CriticalityOf(CourseId course) const {
  if (goal_path_count == 0) return 0.0;
  return static_cast<double>(
             course_path_counts[static_cast<size_t>(course)]) /
         static_cast<double>(goal_path_count);
}

std::string GraphAnalytics::ToString(const Catalog& catalog,
                                     int top_courses) const {
  std::string out =
      StrFormat("goal paths: %llu\n",
                static_cast<unsigned long long>(goal_path_count));
  out += "length histogram (semesters: paths):";
  for (const auto& [length, count] : length_histogram) {
    out += StrFormat(" %d:%llu", length,
                     static_cast<unsigned long long>(count));
  }
  out += "\naverage load by term:";
  for (const auto& [term_index, load] : average_load_by_term) {
    out += StrFormat(" %s:%.2f",
                     Term::FromIndex(term_index).ToShortString().c_str(),
                     load);
  }
  out += "\nmost critical courses:\n";
  int shown = 0;
  for (CourseId course : CoursesByCriticality()) {
    if (shown >= top_courses) break;
    if (course_path_counts[static_cast<size_t>(course)] == 0) break;
    out += StrFormat("  %-10s %5.1f%%\n",
                     catalog.course(course).code.c_str(),
                     100.0 * CriticalityOf(course));
    ++shown;
  }
  return out;
}

}  // namespace coursenav
