#include "graph/export.h"

#include "util/string_util.h"

namespace coursenav {

namespace {

std::vector<std::string> CourseCodes(const DynamicBitset& set,
                                     const Catalog& catalog) {
  std::vector<std::string> codes;
  set.ForEach([&](int id) {
    codes.push_back(catalog.course(static_cast<CourseId>(id)).code);
  });
  return codes;
}

JsonValue CodesArray(const DynamicBitset& set, const Catalog& catalog) {
  JsonValue::Array out;
  for (std::string& code : CourseCodes(set, catalog)) {
    out.emplace_back(std::move(code));
  }
  return JsonValue(std::move(out));
}

}  // namespace

std::string LearningGraphToDot(const LearningGraph& graph,
                               const Catalog& catalog) {
  std::string out = "digraph learning_graph {\n";
  out += "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const LearningNode& node = graph.node(id);
    out += StrFormat("  n%d [label=\"%s\\nX=%s\"%s];\n", id,
                     node.term.ToString().c_str(),
                     catalog.CourseSetToString(node.completed).c_str(),
                     node.is_goal ? ", peripheries=2" : "");
  }
  for (EdgeId id = 1; id < graph.num_nodes(); ++id) {  // edge id = child id
    const LearningEdge edge = graph.edge(id);
    out += StrFormat("  n%d -> n%d [label=\"%s\"];\n", edge.from, edge.to,
                     catalog.CourseSetToString(edge.selection).c_str());
  }
  out += "}\n";
  return out;
}

JsonValue LearningGraphToJson(const LearningGraph& graph,
                              const Catalog& catalog,
                              const OfferingSchedule& schedule,
                              const std::optional<DynamicBitset>& avoid) {
  JsonValue::Array nodes;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const LearningNode& node = graph.node(id);
    JsonValue::Object obj;
    obj["id"] = JsonValue(static_cast<int64_t>(id));
    obj["term"] = JsonValue(node.term.ToString());
    obj["completed"] = CodesArray(node.completed, catalog);
    obj["options"] = CodesArray(
        RecordedOptions(catalog, schedule, node.term, node.completed, avoid),
        catalog);
    obj["is_goal"] = JsonValue(node.is_goal);
    nodes.emplace_back(std::move(obj));
  }
  JsonValue::Array edges;
  for (EdgeId id = 1; id < graph.num_nodes(); ++id) {  // edge id = child id
    const LearningEdge edge = graph.edge(id);
    JsonValue::Object obj;
    obj["from"] = JsonValue(static_cast<int64_t>(edge.from));
    obj["to"] = JsonValue(static_cast<int64_t>(edge.to));
    obj["selection"] = CodesArray(edge.selection, catalog);
    edges.emplace_back(std::move(obj));
  }
  JsonValue::Object doc;
  doc["nodes"] = JsonValue(std::move(nodes));
  doc["edges"] = JsonValue(std::move(edges));
  return JsonValue(std::move(doc));
}

JsonValue LearningPathToJson(const LearningPath& path,
                             const Catalog& catalog) {
  JsonValue::Object doc;
  doc["start_term"] = JsonValue(path.start_term().ToString());
  doc["start_completed"] = CodesArray(path.start_completed(), catalog);
  doc["cost"] = JsonValue(path.cost());
  JsonValue::Array steps;
  for (const PathStep& step : path.steps()) {
    JsonValue::Object obj;
    obj["term"] = JsonValue(step.term.ToString());
    obj["selection"] = CodesArray(step.selection, catalog);
    steps.emplace_back(std::move(obj));
  }
  doc["steps"] = JsonValue(std::move(steps));
  return JsonValue(std::move(doc));
}

JsonValue LearningPathsToJson(const std::vector<LearningPath>& paths,
                              const Catalog& catalog) {
  JsonValue::Array out;
  for (const LearningPath& path : paths) {
    out.push_back(LearningPathToJson(path, catalog));
  }
  return JsonValue(std::move(out));
}

}  // namespace coursenav
