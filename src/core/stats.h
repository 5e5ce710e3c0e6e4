#ifndef COURSENAV_CORE_STATS_H_
#define COURSENAV_CORE_STATS_H_

#include <cstdint>
#include <string>

#include "util/json.h"

namespace coursenav {

/// A run's tally sheet, and the instrumentation every generator returns;
/// the benchmark harnesses report these directly (Table 1's pruning
/// breakdown, Table 2's path counts).
///
/// The generators, the pruning oracle and the counting driver bump these
/// plain fields while the run is going: a run, or one parallel worker, is
/// single-threaded, so a hot-path bump is one add, not an atomic RMW.
/// Parallel workers each keep a sheet and `MergeFrom` it into the run's at
/// join. The engine adds the finished run's tallies to `obs::GlobalMetrics()`
/// once, so these numbers reconcile exactly with what the metrics
/// exporters report.
struct ExplorationStats {
  /// Nodes materialized into the learning graph.
  int64_t nodes_created = 0;
  /// Edges materialized.
  int64_t edges_created = 0;
  /// Nodes whose expansion was attempted (popped from the worklist).
  int64_t nodes_expanded = 0;

  /// Leaves of the generated graph == learning paths in the output.
  int64_t terminal_paths = 0;
  /// Leaves satisfying the exploration condition (deadline reached, or the
  /// goal requirement holds).
  int64_t goal_paths = 0;
  /// Leaves that are dead ends (no options, no future offerings).
  int64_t dead_end_paths = 0;

  /// Candidate children rejected by the time-based strategy (Eq. 1).
  int64_t pruned_time = 0;
  /// Candidate children rejected by the course-availability strategy.
  int64_t pruned_availability = 0;

  /// Budget checks made. Published as a metric; ToString and ToJson leave
  /// it out.
  int64_t budget_checks = 0;

  double runtime_seconds = 0.0;

  int64_t TotalPruned() const { return pruned_time + pruned_availability; }

  /// Adds another sheet's tallies (every counter, not the runtime).
  void MergeFrom(const ExplorationStats& other);

  /// One-line summary for logs: every counter, the pruning breakdown with
  /// per-strategy percentages (Table 1's layout), and the runtime.
  std::string ToString() const;

  /// Structured form for `--stats-format=json` and the exporters.
  JsonValue ToJson() const;
};

}  // namespace coursenav

#endif  // COURSENAV_CORE_STATS_H_
