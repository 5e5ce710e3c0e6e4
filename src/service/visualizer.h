#ifndef COURSENAV_SERVICE_VISUALIZER_H_
#define COURSENAV_SERVICE_VISUALIZER_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "core/stats.h"
#include "graph/learning_graph.h"
#include "graph/path.h"

namespace coursenav {

/// Text back end of the Learning Path Visualizer (Figure 2): renders
/// exploration output for a terminal. (The DOT/JSON back ends live in
/// graph/export.h.)

/// Renders paths as numbered semester-by-semester tables:
///
/// ```
/// Path 1 (cost 4):
///   Fall 2012:   COSI11A, COSI29A
///   Spring 2013: COSI12B, COSI21A
/// ```
std::string RenderPaths(const std::vector<LearningPath>& paths,
                        const Catalog& catalog, int limit = 10);

/// One-paragraph summary of a generated graph: node/edge counts, paths,
/// pruning effectiveness.
std::string RenderGraphSummary(const LearningGraph& graph,
                               const ExplorationStats& stats);

/// Renders a single node's enrollment status, with its option set
/// (`RecordedOptions` of `catalog`, `schedule` and the run's `avoid` set;
/// the graph stores none).
std::string RenderStatus(const LearningGraph& graph, NodeId node,
                         const Catalog& catalog,
                         const OfferingSchedule& schedule,
                         const std::optional<DynamicBitset>& avoid);

}  // namespace coursenav

#endif  // COURSENAV_SERVICE_VISUALIZER_H_
