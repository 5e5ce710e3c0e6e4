#include "service/visualizer.h"

#include <algorithm>

#include "util/string_util.h"

namespace coursenav {

std::string RenderPaths(const std::vector<LearningPath>& paths,
                        const Catalog& catalog, int limit) {
  std::string out;
  int shown = std::min<int>(limit, static_cast<int>(paths.size()));
  for (int i = 0; i < shown; ++i) {
    const LearningPath& path = paths[static_cast<size_t>(i)];
    out += StrFormat("Path %d (cost %.3f):\n", i + 1, path.cost());
    for (const PathStep& step : path.steps()) {
      std::string courses;
      bool first = true;
      step.selection.ForEach([&](int id) {
        if (!first) courses += ", ";
        courses += catalog.course(static_cast<CourseId>(id)).code;
        first = false;
      });
      if (courses.empty()) courses = "(skip)";
      out += StrFormat("  %-12s %s\n", step.term.ToString().c_str(),
                       courses.c_str());
    }
  }
  if (static_cast<int>(paths.size()) > shown) {
    out += StrFormat("... and %d more paths\n",
                     static_cast<int>(paths.size()) - shown);
  }
  return out;
}

std::string RenderGraphSummary(const LearningGraph& graph,
                               const ExplorationStats& stats) {
  std::string out;
  out += StrFormat("Learning graph: %lld nodes, %lld edges (%.1f MiB)\n",
                   static_cast<long long>(graph.num_nodes()),
                   static_cast<long long>(graph.num_edges()),
                   static_cast<double>(graph.MemoryUsage()) / (1024 * 1024));
  out += StrFormat(
      "Paths: %lld total, %lld reaching the exploration goal, %lld dead "
      "ends\n",
      static_cast<long long>(stats.terminal_paths),
      static_cast<long long>(stats.goal_paths),
      static_cast<long long>(stats.dead_end_paths));
  if (stats.TotalPruned() > 0) {
    double time_share = 100.0 * static_cast<double>(stats.pruned_time) /
                        static_cast<double>(stats.TotalPruned());
    out += StrFormat(
        "Pruned subtrees: %lld (%.1f%% time-based, %.1f%% availability)\n",
        static_cast<long long>(stats.TotalPruned()), time_share,
        100.0 - time_share);
  }
  out += StrFormat("Runtime: %.3fs\n", stats.runtime_seconds);
  return out;
}

std::string RenderStatus(const LearningGraph& graph, NodeId node,
                         const Catalog& catalog,
                         const OfferingSchedule& schedule,
                         const std::optional<DynamicBitset>& avoid) {
  const LearningNode& n = graph.node(node);
  const DynamicBitset options =
      RecordedOptions(catalog, schedule, n.term, n.completed, avoid);
  return StrFormat("%s: completed %s, options %s%s",
                   n.term.ToString().c_str(),
                   catalog.CourseSetToString(n.completed).c_str(),
                   catalog.CourseSetToString(options).c_str(),
                   n.is_goal ? " [goal]" : "");
}

}  // namespace coursenav
