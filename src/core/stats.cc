#include "core/stats.h"

#include "util/string_util.h"

namespace coursenav {

void ExplorationStats::MergeFrom(const ExplorationStats& other) {
  nodes_created += other.nodes_created;
  edges_created += other.edges_created;
  nodes_expanded += other.nodes_expanded;
  terminal_paths += other.terminal_paths;
  goal_paths += other.goal_paths;
  dead_end_paths += other.dead_end_paths;
  pruned_time += other.pruned_time;
  pruned_availability += other.pruned_availability;
  budget_checks += other.budget_checks;
}

std::string ExplorationStats::ToString() const {
  std::string out = StrFormat(
      "nodes=%lld edges=%lld expanded=%lld paths=%lld (goal=%lld dead=%lld) ",
      static_cast<long long>(nodes_created),
      static_cast<long long>(edges_created),
      static_cast<long long>(nodes_expanded),
      static_cast<long long>(terminal_paths),
      static_cast<long long>(goal_paths),
      static_cast<long long>(dead_end_paths));
  const int64_t pruned = TotalPruned();
  if (pruned > 0) {
    const double time_share =
        100.0 * static_cast<double>(pruned_time) / static_cast<double>(pruned);
    out += StrFormat(
        "pruned=%lld (pruned_time=%lld %.1f%%, pruned_avail=%lld %.1f%%) ",
        static_cast<long long>(pruned), static_cast<long long>(pruned_time),
        time_share, static_cast<long long>(pruned_availability),
        100.0 - time_share);
  } else {
    out += StrFormat("pruned=0 (pruned_time=%lld, pruned_avail=%lld) ",
                     static_cast<long long>(pruned_time),
                     static_cast<long long>(pruned_availability));
  }
  out += StrFormat("runtime_seconds=%.3f", runtime_seconds);
  return out;
}

JsonValue ExplorationStats::ToJson() const {
  JsonValue::Object object;
  object["nodes_created"] = JsonValue(nodes_created);
  object["edges_created"] = JsonValue(edges_created);
  object["nodes_expanded"] = JsonValue(nodes_expanded);
  object["terminal_paths"] = JsonValue(terminal_paths);
  object["goal_paths"] = JsonValue(goal_paths);
  object["dead_end_paths"] = JsonValue(dead_end_paths);
  object["pruned_time"] = JsonValue(pruned_time);
  object["pruned_availability"] = JsonValue(pruned_availability);
  object["pruned_total"] = JsonValue(TotalPruned());
  object["runtime_seconds"] = JsonValue(runtime_seconds);
  return JsonValue(std::move(object));
}

}  // namespace coursenav
