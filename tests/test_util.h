#ifndef COURSENAV_TESTS_TEST_UTIL_H_
#define COURSENAV_TESTS_TEST_UTIL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/enrollment.h"
#include "core/stats.h"
#include "expr/parser.h"
#include "graph/learning_graph.h"
#include "graph/path.h"
#include "tools/lint/lint.h"

namespace coursenav::testing_util {

/// Lints `content` as if it lived at `path`, with `rule` alone, and
/// renders each finding to its stable `file:line: [rule-id] message` form
/// — the fixture workhorse of tests/lint_test.cc.
inline std::vector<std::string> LintRuleHits(std::string_view path,
                                             std::string_view content,
                                             std::string_view rule) {
  std::vector<std::string> rendered;
  for (const lint::Finding& finding : lint::LintContent(path, content, rule)) {
    rendered.push_back(finding.ToString());
  }
  return rendered;
}

/// The paper's Figure 3 scenario: C = {11A, 29A, 21A}; 11A and 29A have no
/// prerequisites, 21A requires 11A; 11A and 29A are offered Fall'11 and
/// Fall'12, 21A only Spring'12.
struct Figure3Fixture {
  Catalog catalog;
  OfferingSchedule schedule;
  CourseId c11a, c29a, c21a;
  Term fall11{Season::kFall, 2011};
  Term spring13{Season::kSpring, 2013};

  Figure3Fixture() : schedule(0) {
    Course c;
    c.code = "11A";
    c11a = *catalog.AddCourse(std::move(c));
    c = Course();
    c.code = "29A";
    c29a = *catalog.AddCourse(std::move(c));
    c = Course();
    c.code = "21A";
    c.prerequisites = *expr::ParseBoolExpr("11A");
    c21a = *catalog.AddCourse(std::move(c));
    Status finalize = catalog.Finalize();
    if (!finalize.ok()) std::abort();

    schedule = OfferingSchedule(catalog.size());
    Term fall12(Season::kFall, 2012), spring12(Season::kSpring, 2012);
    (void)schedule.AddOffering(c11a, fall11);
    (void)schedule.AddOffering(c11a, fall12);
    (void)schedule.AddOffering(c29a, fall11);
    (void)schedule.AddOffering(c29a, fall12);
    (void)schedule.AddOffering(c21a, spring12);
  }

  EnrollmentStatus FreshStudent() const {
    return {fall11, catalog.NewCourseSet()};
  }
};

/// Checks the structural invariants every generated graph — complete or
/// budget-truncated — must satisfy, and returns a description of the first
/// violation (empty string = structurally valid):
///   - a rooted tree: `num_edges == num_nodes - 1`, only the root has no
///     parent, parents are created before their children;
///   - every edge agrees with its endpoints (the edge into a node leads from
///     its parent to it, and lies in the parent's child range; every edge of
///     a child range leads back out of that node);
///   - child state is derived from the parent: `term == parent.term.Next()`,
///     `completed == parent.completed ∪ W` for the edge's selection `W`, and
///     the selection was actually available (`W ⊆ Y(parent)`). The graph
///     stores no option sets, so `RecordedOptions` derives `Y(parent)` from
///     `catalog`, `schedule` and the run's `avoid` set.
inline std::string StructureErrors(const LearningGraph& graph,
                                   const Catalog& catalog,
                                   const OfferingSchedule& schedule,
                                   const std::optional<DynamicBitset>& avoid) {
  if (graph.num_nodes() == 0) {
    return graph.num_edges() == 0 ? "" : "edges without nodes";
  }
  if (graph.num_edges() != graph.num_nodes() - 1) {
    return "not a tree: " + std::to_string(graph.num_edges()) + " edges for " +
           std::to_string(graph.num_nodes()) + " nodes";
  }
  // How often each node is listed in some child range: once for every
  // non-root node, never for the root.
  std::vector<int> listed(static_cast<size_t>(graph.num_nodes()), 0);
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const std::string where = "node " + std::to_string(id) + ": ";
    for (EdgeId out : graph.node(id).out_edges) {
      if (out <= 0 || out >= graph.num_nodes()) {
        return where + "out edge " + std::to_string(out) + " out of range";
      }
      const LearningEdge edge = graph.edge(out);
      if (edge.from != id) {
        return where + "out edge " + std::to_string(out) +
               " does not lead from this node";
      }
      ++listed[static_cast<size_t>(edge.to)];
    }
  }
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const LearningNode& node = graph.node(id);
    const std::string where = "node " + std::to_string(id) + ": ";
    if (id == graph.root()) {
      if (node.parent != kInvalidNodeId) return "root has a parent";
      if (listed[0] != 0) return "root listed as a child";
      continue;
    }
    if (node.parent < 0 || node.parent >= id) {
      return where + "parent not created before child";
    }
    if (listed[static_cast<size_t>(id)] != 1) {
      return where + "listed in " +
             std::to_string(listed[static_cast<size_t>(id)]) +
             " child ranges, not its parent's alone";
    }
    const LearningNode& parent = graph.node(node.parent);
    if (node.term != parent.term.Next()) {
      return where + "term is not the semester after its parent's";
    }
    const DynamicBitset parent_options = RecordedOptions(
        catalog, schedule, parent.term, parent.completed, avoid);
    const DynamicBitset selection = graph.edge(id).selection;
    if (!selection.IsSubsetOf(parent_options)) {
      return where + "selection not available in the parent's semester";
    }
    if (node.completed != (parent.completed | selection)) {
      return where + "completed set != parent.completed | selection";
    }
  }
  return "";
}

/// Checks that a generator's stats agree with the graph it produced (for
/// both complete and partial runs); returns the first inconsistency, or "".
inline std::string StatsErrors(const LearningGraph& graph,
                               const ExplorationStats& stats) {
  if (stats.nodes_created != graph.num_nodes()) {
    return "nodes_created disagrees with the graph";
  }
  if (stats.edges_created != graph.num_edges()) {
    return "edges_created disagrees with the graph";
  }
  if (stats.goal_paths + stats.dead_end_paths != stats.terminal_paths) {
    return "goal + dead-end paths != terminal paths";
  }
  // Unexpanded worklist nodes of a truncated run are leaves that were never
  // classified, so classified terminals can only undercount leaves.
  if (stats.terminal_paths >
      static_cast<int64_t>(graph.LeafNodes().size())) {
    return "more terminal paths than leaves";
  }
  if (static_cast<int64_t>(graph.GoalNodes().size()) != stats.goal_paths) {
    return "goal-marked nodes disagree with goal_paths";
  }
  return "";
}

/// Field-by-field graph comparison; returns a description of the first
/// difference, or "" when the graphs are identical (ids, bitsets, costs —
/// everything a serializer would write; a status's option set is a function
/// of its term and completed set, both compared). This is the workhorse of the
/// byte-identity contracts: serial vs parallel (tests/parallel_test.cc)
/// and legacy facade vs planner pipeline (tests/plan_test.cc).
inline std::string GraphDifference(const LearningGraph& a,
                                   const LearningGraph& b) {
  if (a.num_nodes() != b.num_nodes()) {
    return "node counts differ: " + std::to_string(a.num_nodes()) + " vs " +
           std::to_string(b.num_nodes());
  }
  if (a.num_edges() != b.num_edges()) {
    return "edge counts differ: " + std::to_string(a.num_edges()) + " vs " +
           std::to_string(b.num_edges());
  }
  if (a.root() != b.root()) return "roots differ";
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    const LearningNode& na = a.node(id);
    const LearningNode& nb = b.node(id);
    const std::string where = "node " + std::to_string(id) + ": ";
    if (na.term != nb.term) return where + "terms differ";
    if (na.parent != nb.parent) return where + "parents differ";
    if (na.completed != nb.completed) return where + "completed sets differ";
    if (na.edge_cost != nb.edge_cost) return where + "edge costs differ";
    if (na.path_cost != nb.path_cost) return where + "path costs differ";
    if (na.out_edges != nb.out_edges) return where + "child ranges differ";
    if (na.is_goal != nb.is_goal) return where + "goal flags differ";
  }
  for (EdgeId id = 1; id < a.num_nodes(); ++id) {  // edge id = child id
    const LearningEdge ea = a.edge(id);
    const LearningEdge eb = b.edge(id);
    const std::string where = "edge " + std::to_string(id) + ": ";
    if (ea.from != eb.from || ea.to != eb.to) {
      return where + "endpoints differ";
    }
    if (ea.selection != eb.selection) return where + "selections differ";
    if (ea.cost != eb.cost) return where + "costs differ";
  }
  return "";
}

/// Stats equality modulo runtime (wall time legitimately varies).
inline std::string StatsDifference(const ExplorationStats& a,
                                   const ExplorationStats& b) {
  if (a.nodes_created != b.nodes_created) return "nodes_created differ";
  if (a.edges_created != b.edges_created) return "edges_created differ";
  if (a.nodes_expanded != b.nodes_expanded) return "nodes_expanded differ";
  if (a.terminal_paths != b.terminal_paths) return "terminal_paths differ";
  if (a.goal_paths != b.goal_paths) return "goal_paths differ";
  if (a.dead_end_paths != b.dead_end_paths) return "dead_end_paths differ";
  if (a.pruned_time != b.pruned_time) return "pruned_time differ";
  if (a.pruned_availability != b.pruned_availability) {
    return "pruned_availability differ";
  }
  return "";
}

/// Extracts the root-to-leaf path of every leaf (all learning paths of a
/// generated graph).
inline std::vector<LearningPath> AllLeafPaths(const LearningGraph& graph) {
  std::vector<LearningPath> out;
  for (NodeId leaf : graph.LeafNodes()) {
    out.push_back(LearningPath::FromGraph(graph, leaf));
  }
  return out;
}

/// Extracts the paths of goal-marked leaves only.
inline std::vector<LearningPath> GoalPaths(const LearningGraph& graph) {
  std::vector<LearningPath> out;
  for (NodeId leaf : graph.GoalNodes()) {
    out.push_back(LearningPath::FromGraph(graph, leaf));
  }
  return out;
}

/// True if `needle` equals some element of `haystack`.
inline bool ContainsPath(const std::vector<LearningPath>& haystack,
                         const LearningPath& needle) {
  for (const LearningPath& path : haystack) {
    if (path == needle) return true;
  }
  return false;
}

}  // namespace coursenav::testing_util

#endif  // COURSENAV_TESTS_TEST_UTIL_H_
