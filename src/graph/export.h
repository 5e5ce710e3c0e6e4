#ifndef COURSENAV_GRAPH_EXPORT_H_
#define COURSENAV_GRAPH_EXPORT_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "graph/learning_graph.h"
#include "graph/path.h"
#include "util/json.h"

namespace coursenav {

/// Back end of the paper's Learning Path Visualizer (Figure 2): renders
/// learning graphs and paths into Graphviz DOT and JSON for a front end.

/// Graphviz DOT rendering. Nodes are labelled with the semester and the
/// completed set; edges with the elected selection. Goal nodes are drawn
/// with a double border.
std::string LearningGraphToDot(const LearningGraph& graph,
                               const Catalog& catalog);

/// JSON document with "nodes" and "edges" arrays. Each node lists its
/// option set, which the graph does not store: `RecordedOptions` derives it
/// from `catalog`, `schedule` and `avoid`, which must be the avoid set of
/// the request that built `graph`.
JsonValue LearningGraphToJson(const LearningGraph& graph,
                              const Catalog& catalog,
                              const OfferingSchedule& schedule,
                              const std::optional<DynamicBitset>& avoid);

/// JSON rendering of a single path: start term, start set, steps, cost.
JsonValue LearningPathToJson(const LearningPath& path, const Catalog& catalog);

/// JSON array of paths (a ranked result set).
JsonValue LearningPathsToJson(const std::vector<LearningPath>& paths,
                              const Catalog& catalog);

}  // namespace coursenav

#endif  // COURSENAV_GRAPH_EXPORT_H_
