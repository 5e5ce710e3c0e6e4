#ifndef COURSENAV_CORE_PARALLEL_BRIDGE_H_
#define COURSENAV_CORE_PARALLEL_BRIDGE_H_

#include "core/engine.h"
#include "core/expand.h"
#include "graph/learning_graph.h"
#include "util/status.h"

// The contract between the serial generators (this module) and the
// parallel frontier engine (src/exec/). Dependency inversion keeps the
// module layering DAG acyclic — `core` may not include `exec` headers
// (coursenav-lint enforces it) — so core *declares* the expansion entry
// points here and src/exec/parallel_expander.cc *implements* them. The
// implementation is compiled into coursenav_core (see src/core/CMakeLists),
// which also keeps the library link graph cycle-free.

namespace coursenav::internal {

/// Worker count for an `ExplorationOptions::num_threads` request: 0 means
/// the serial path (callers should not reach the expander at all), anything
/// else clamps to [1, LearningGraph::kMaxShards] — one graph shard per
/// worker bounds the thread count.
int EffectiveWorkers(int num_threads);

/// Expands `graph`'s frontier across `num_workers` work-stealing workers,
/// then canonicalizes the result into serial id order.
///
/// Preconditions: `graph` was configured with `EffectiveWorkers` shards and
/// holds exactly its root node; `engine.tallies().nodes_created` already
/// counts that root (mirroring the serial generators).
///
/// The workers run the shared kernel (`Expander`, core/expand.h) that the
/// serial drivers run, each with its own expander and a sink over the
/// work-stealing deques: the same enumeration order, pruning decisions,
/// skip-edge rule, terminal accounting, and one budget check per node pop
/// plus one per enumerated selection. So a *complete* run produces a
/// canonical graph byte-identical to the serial generator's and
/// `ExplorationStats` totals that reconcile exactly, at any worker count.
/// Budget enforcement is global: relaxed atomic node/byte counters plus
/// per-worker deadline budgets feed a sticky stop flag, and a
/// budget-truncated run yields a well-formed partial graph (nodes still on
/// the frontier simply stay leaves), same as serial.
///
/// Returns the run's termination status: OK for a complete expansion, the
/// first budget/cancellation/fault verdict otherwise.
///
/// Implemented by the exec layer (src/exec/parallel_expander.cc).
Status ExpandFrontierParallel(ExplorationEngine& engine,
                              const ExpandSpec& spec, int num_workers,
                              LearningGraph* graph);

}  // namespace coursenav::internal

#endif  // COURSENAV_CORE_PARALLEL_BRIDGE_H_
