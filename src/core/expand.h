#ifndef COURSENAV_CORE_EXPAND_H_
#define COURSENAV_CORE_EXPAND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/term.h"
#include "core/combinations.h"
#include "core/engine.h"
#include "core/pruning.h"
#include "core/stats.h"
#include "graph/learning_graph.h"
#include "requirements/goal.h"
#include "util/bitset.h"

namespace coursenav::internal {

/// What a run prunes by. No goal runs the deadline-driven step: the end
/// semester is the goal and nothing is pruned. A goal runs the goal-driven
/// step, pruning by `config`. Referenced objects must outlive the run.
struct ExpandSpec {
  const Goal* goal = nullptr;
  const GoalDrivenConfig* config = nullptr;  // required when goal != null
};

/// What `Expander::Expand` made of one status.
enum class Expansion {
  kGoal,      // a goal leaf: the goal holds (no goal: the end semester)
  kMissed,    // a leaf in the end semester that misses the goal
  kDeadEnd,   // a leaf whose every candidate child was pruned or absent
  kExpanded,  // at least one kept child went to the sink
  kStopped,   // the sink stopped the run; the status is partly expanded
};

/// The per-status step all generators share, written once. Algorithm 1
/// expands a status by every selection of at most m electable courses; the
/// goal-driven generator (§4.2) prunes those children by Equation 1 and
/// course availability; the ranked generator (§4.3) runs the same step
/// from a cheapest-first queue. The serial LIFO and best-first drivers, the
/// parallel workers and the layered counter each keep only a frontier and
/// a *sink*, the part that decides what a kept child becomes:
///
///   bool NearNodeBudget(size_t staged);  // could `staged` more nodes
///                                        // reach the node budget?
///   bool CheckBudget();  // the exact check before each selection; false
///                        // stops the run (the sink keeps the verdict)
///   bool Add(const CandidateBatch& batch, size_t row);  // a kept child;
///                                                       // false stops
///
/// One expander serves one thread: it owns the candidate batch, the
/// scratch sets and, with a goal, the pruning oracle.
class Expander {
 public:
  /// `tallies` receives the node, edge and pruning tallies (null: the
  /// engine's own sheet).
  Expander(const ExplorationEngine& engine, const ExpandSpec& spec,
           ExplorationStats* tallies = nullptr)
      : engine_(engine),
        goal_(spec.goal),
        tallies_(tallies != nullptr ? tallies : &engine.tallies()),
        empty_selection_(engine.catalog().size()),
        child_completed_(engine.catalog().size()),
        child_selection_(engine.catalog().size()) {
    if (goal_ != nullptr) {
      oracle_.emplace(*goal_, engine, engine.options(), *spec.config, tallies_);
    }
    batch_.Configure(engine.catalog().size());
  }

  /// Runs the step on the status `(term, completed)`. In order: the
  /// goal/end test; the status's option set `Y`, derived here because no
  /// status stores it (so a leaf never pays for it); Equation 1's minimum
  /// selection, whose skipped selections count as time-pruned; enumeration
  /// into the candidate batch, classified batch-wise, kept rows going to the
  /// sink in enumeration order; and the skip edge. Near the node budget the
  /// staged rows are handed over before the sink's exact check, so the
  /// check sees the node count a candidate-at-a-time loop would.
  template <typename Sink>
  Expansion Expand(Term term, const DynamicBitset& completed, Sink& sink) {
    const Term end = engine_.end();
    if (goal_ == nullptr ? term == end : goal_->IsSatisfied(completed)) {
      return Expansion::kGoal;
    }
    if (term == end) return Expansion::kMissed;

    // The live schedule read, which the schedule/churn fault seam covers.
    options_ = ComputeOptions(engine_.catalog(),
                              engine_.schedule().OfferedIn(term), completed,
                              engine_.options().avoid_courses);
    const int max_size = engine_.options().max_courses_per_term;
    child_term_ = term.Next();
    kept_ = false;

    int min_size = 1;
    if (oracle_.has_value()) {
      left_parent_ = oracle_->LeftAt(completed);
      // Selections below Equation 1's minimum size provably miss the
      // deadline: skip enumerating them but count them as time-pruned.
      min_size = oracle_->MinSelectionSize(left_parent_, term);
      if (min_size > 1) {
        oracle_->AccountSkippedTimePruned(static_cast<int64_t>(CountSelections(
            options_.count(), 1, std::min(min_size - 1, max_size))));
      }
    }

    if (!options_.empty() && min_size <= options_.count()) {
      const bool enumerated = ForEachSelection(
          options_, min_size, max_size, [&](const DynamicBitset& selection) {
            if (!batch_.empty() && sink.NearNodeBudget(batch_.size()) &&
                !Flush(sink)) {
              return false;
            }
            if (!sink.CheckBudget()) return false;
            batch_.Push(completed, selection);
            return !batch_.full() || Flush(sink);
          });
      if (!enumerated) {
        // Rows staged before the stop passed their budget checks.
        Flush(sink);
        return Expansion::kStopped;
      }
    }

    // Skip edge: advance a semester with an empty selection when nothing is
    // electable now but courses remain later (Figure 3's n4 → n7), or
    // always under allow_voluntary_skip.
    if (engine_.options().allow_voluntary_skip ||
        (options_.empty() && engine_.FutureCourseExists(completed, term))) {
      batch_.Push(completed, empty_selection_);
    }
    if (!Flush(sink)) return Expansion::kStopped;
    return kept_ ? Expansion::kExpanded : Expansion::kDeadEnd;
  }

  /// Graph sinks: unpacks kept row `row` into `child_selection()` and
  /// `child_completed()`, valid until the next call.
  void UnpackChild(const CandidateBatch& batch, size_t row) {
    batch.CopyCompletedTo(row, &child_completed_);
    batch.CopySelectionTo(row, &child_selection_);
  }
  const DynamicBitset& child_selection() const { return child_selection_; }
  const DynamicBitset& child_completed() const { return child_completed_; }

  /// Graph sinks: materializes the unpacked child under `parent` (id
  /// `parent_id`, owned by the caller) in `shard`, and counts the node and
  /// its edge.
  LearningGraph::CreatedChild AddChild(LearningGraph& graph, int shard,
                                       NodeId parent_id, LearningNode* parent,
                                       double edge_cost, double path_cost) {
    LearningGraph::CreatedChild child = graph.AddChildTo(
        shard, parent_id, parent, child_selection_, edge_cost, path_cost);
    tallies_->nodes_created += 1;
    tallies_->edges_created += 1;
    return child;
  }

  /// The pruning oracle (null without a goal).
  const PruningOracle* oracle() const {
    return oracle_.has_value() ? &*oracle_ : nullptr;
  }

  /// Emits this serial run's pruning stage spans (none without a goal).
  void EmitStageSpans() const {
    if (oracle_.has_value()) oracle_->EmitStageSpans();
  }

 private:
  /// Classifies the staged rows and hands the kept ones to the sink in
  /// staging order; false once the sink stops the run.
  template <typename Sink>
  bool Flush(Sink& sink) {
    if (batch_.empty()) return true;
    if (oracle_.has_value()) {
      oracle_->ClassifyBatch(batch_, child_term_, left_parent_, &verdicts_);
    }
    bool running = true;
    for (size_t row = 0; row < batch_.size() && running; ++row) {
      if (oracle_.has_value() &&
          verdicts_[row] != PruningOracle::Verdict::kKeep) {
        continue;
      }
      kept_ = true;
      running = sink.Add(batch_, row);
    }
    batch_.Clear();
    return running;
  }

  const ExplorationEngine& engine_;
  const Goal* goal_;
  ExplorationStats* tallies_;
  std::optional<PruningOracle> oracle_;
  CandidateBatch batch_;
  std::vector<PruningOracle::Verdict> verdicts_;
  const DynamicBitset empty_selection_;
  DynamicBitset options_;  // Y_i of the status being expanded
  DynamicBitset child_completed_;
  DynamicBitset child_selection_;
  // Of the status being expanded: its children's semester, Equation 1's
  // left_i, and whether any child was kept.
  Term child_term_;
  int left_parent_ = -1;
  bool kept_ = false;
};

/// The graph drivers' leaf accounting: goal, missed and dead-end statuses
/// are leaves; expanded and stopped ones are not.
inline void CountLeaf(Expansion expansion, ExplorationStats& tallies) {
  if (expansion == Expansion::kExpanded || expansion == Expansion::kStopped) {
    return;
  }
  tallies.terminal_paths += 1;
  if (expansion == Expansion::kGoal) {
    tallies.goal_paths += 1;
  } else {
    tallies.dead_end_paths += 1;
  }
}

}  // namespace coursenav::internal

#endif  // COURSENAV_CORE_EXPAND_H_
