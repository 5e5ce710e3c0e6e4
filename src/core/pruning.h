#ifndef COURSENAV_CORE_PRUNING_H_
#define COURSENAV_CORE_PRUNING_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "catalog/term.h"
#include "core/engine.h"
#include "core/options.h"
#include "core/stats.h"
#include "obs/trace.h"
#include "requirements/goal.h"
#include "util/bitset.h"

namespace coursenav {

/// Tuning knobs of the goal-driven (and ranked) generators. The defaults
/// are the paper's configuration; the all-off configuration is Table 1's
/// "No Pruning" baseline.
struct GoalDrivenConfig {
  /// Equation 1 / Lemma 1: cut a candidate child when even taking the
  /// maximum course load in every remaining semester cannot close the gap
  /// to the goal. Selections below Equation 1's minimum size are not
  /// enumerated at all, only counted as time-pruned.
  bool enable_time_pruning = true;

  /// Section 4.2.2: cut a candidate child when the goal is unsatisfiable
  /// even after taking *every* course offered in the remaining semesters.
  bool enable_availability_pruning = true;

  /// Memoize availability-pruning verdicts per (semester, reachable-set)
  /// key in each pruning oracle's private memo (effective for monotone
  /// goals only); off, each candidate batch is evaluated by the goal's
  /// batched kernel. Pure optimization; disable for the ablation bench.
  bool cache_availability_checks = true;
};

namespace internal {

/// A structure-of-arrays staging buffer for one parent expansion's
/// candidate children. Instead of classifying each `X_i ∪ W` the moment a
/// selection is enumerated, generators stage the candidate rows here —
/// completed-set words, selection words, and selection popcounts each in
/// one contiguous matrix — and classify a whole batch with clause-major
/// kernels (`PruningOracle::ClassifyBatch`). Candidates keep enumeration
/// order, so materializing the kept rows in index order reproduces the
/// node-at-a-time output exactly.
class CandidateBatch {
 public:
  /// Default batch capacity: bounded so staged rows stay L1/L2-resident
  /// (64 rows × 160 words = 80 KiB at the 10k-course scale).
  static constexpr size_t kDefaultCapacity = 64;

  /// (Re)shapes the buffer for a universe and clears it. Allocates once;
  /// repeated calls with the same universe reuse the matrices.
  void Configure(int universe_size, size_t capacity = kDefaultCapacity) {
    universe_size_ = universe_size;
    stride_ = (static_cast<size_t>(universe_size) + 63) / 64;
    capacity_ = capacity;
    completed_words_.resize(capacity_ * stride_);
    selection_words_.resize(capacity_ * stride_);
    selection_sizes_.resize(capacity_);
    count_ = 0;
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }
  void Clear() { count_ = 0; }

  int universe_size() const { return universe_size_; }
  size_t word_stride() const { return stride_; }

  /// Stages the candidate `parent_completed ∪ selection` (the union is
  /// fused straight into the staging row — no bitset temporary).
  void Push(const DynamicBitset& parent_completed,
            const DynamicBitset& selection) {
    uint64_t* completed_row = completed_words_.data() + count_ * stride_;
    uint64_t* selection_row = selection_words_.data() + count_ * stride_;
    simd::UnionInto(completed_row, parent_completed.word_data(),
                    selection.word_data(), stride_);
    std::memcpy(selection_row, selection.word_data(),
                stride_ * sizeof(uint64_t));
    selection_sizes_[count_] = simd::Popcount(selection_row, stride_);
    ++count_;
  }

  int selection_size(size_t i) const { return selection_sizes_[i]; }
  const uint64_t* completed_row(size_t i) const {
    return completed_words_.data() + i * stride_;
  }

  /// The staged completed sets as a Goal batch view.
  CompletedBatchView completed_view() const {
    return {completed_words_.data(), stride_, count_, universe_size_};
  }

  /// Reconstructs staged rows into caller-owned scratch bitsets (which must
  /// already span this universe).
  void CopyCompletedTo(size_t i, DynamicBitset* out) const {
    out->AssignWords(completed_words_.data() + i * stride_);
  }
  void CopySelectionTo(size_t i, DynamicBitset* out) const {
    out->AssignWords(selection_words_.data() + i * stride_);
  }

 private:
  int universe_size_ = 0;
  size_t stride_ = 0;
  size_t capacity_ = 0;
  size_t count_ = 0;
  std::vector<uint64_t> completed_words_;
  std::vector<uint64_t> selection_words_;
  std::vector<int> selection_sizes_;
};

/// Implements the paper's two pruning strategies for one generation run,
/// with instrumentation. Internal — used by the goal-driven and ranked
/// generators (one oracle per run), by the parallel expander (one oracle
/// per worker, each with the worker's own tally sheet and verdict memo) and
/// by the layered counter.
class PruningOracle {
 public:
  enum class Verdict { kKeep, kPrunedTime, kPrunedAvailability };

  /// All references must outlive the oracle. `tallies` is where pruning
  /// tallies land; null means the engine's own sheet (the serial path).
  PruningOracle(const Goal& goal, const ExplorationEngine& engine,
                const ExplorationOptions& options,
                const GoalDrivenConfig& config,
                ExplorationStats* tallies = nullptr);

  /// `left_i` at a node about to be expanded, or -1 when time pruning is
  /// disabled (the value is then never used).
  int LeftAt(const DynamicBitset& completed) const;

  /// Equation 1's per-semester minimum selection size at a node in
  /// `parent_term` with remaining-course count `left_parent`; 1 when the
  /// bound does not bind or time pruning is off. Selections smaller than
  /// the returned size are provably time-pruned — callers may skip
  /// enumerating them after accounting via `CountSelections`.
  int MinSelectionSize(int left_parent, Term parent_term) const;

  /// Applies time-based then course-availability pruning to a candidate
  /// child (`child_completed` at `child_term`, reached by electing
  /// `selection_size` courses). `left_parent` is `LeftAt` of the parent.
  /// Increments the matching pruning counter in the engine's metric
  /// registry when pruning, and (when a tracer is installed) accumulates
  /// per-strategy wall time for `EmitStageSpans`.
  Verdict ClassifyChild(const DynamicBitset& child_completed,
                        int selection_size, Term child_term, int left_parent);

  /// Batched `ClassifyChild` over one staged frontier batch (all candidates
  /// share `child_term` and the parent's `left_parent`). Writes one verdict
  /// per staged candidate to `verdicts` (resized to `batch.size()`).
  ///
  /// Equivalence contract (pinned by tests/pruning_batch_test.cc): for
  /// every candidate the verdict — and the resulting pruning-counter
  /// deltas — are exactly what a `ClassifyChild` loop over the batch in
  /// index order would produce. The only differences are performance-
  /// shaped: exact time bounds are computed clause-major for the whole
  /// batch, the availability phase reuses one scratch reachable set, and
  /// each phase records one aggregate stage sample instead of one per
  /// candidate.
  void ClassifyBatch(const CandidateBatch& batch, Term child_term,
                     int left_parent, std::vector<Verdict>* verdicts);

  /// Records `count` candidates as time-pruned without classifying them
  /// individually (the Equation 1 min-selection shortcut).
  void AccountSkippedTimePruned(int64_t count);

  /// Emits this serial run's stage spans: EmitStageSpans over this one
  /// oracle.
  void EmitStageSpans() const;

  /// Emits one aggregate span per pruning strategy ("prune/time",
  /// "prune/availability") for a run whose workers used `oracles` (one
  /// oracle for a serial run). Each lasts the workers' mean strategy time,
  /// so a parallel run's spans nest inside its wall-clock `expand/loop`,
  /// and carries the summed call count, `workers`, `cpu_us` (the summed
  /// strategy time) and the run-total `pruned` count. No-op for no oracles
  /// or without an installed tracer.
  static void EmitStageSpans(std::span<const PruningOracle* const> oracles);

  /// Structural validator (debug builds): aborts via CN_CHECK when a
  /// memoized availability verdict is inconsistent with the run's catalog —
  /// a term index outside the exploration window, a reachable set whose
  /// universe differs from the catalog's, or a reachable set missing
  /// courses that are certainly available from its term. Call sites gate
  /// on CN_DCHECK_IS_ON(); always compiled so tests can invoke it.
  void CheckInvariants() const;

 private:
  using VerdictMemo =
      std::unordered_map<DynamicBitset, bool, DynamicBitsetHash>;

  /// The memo probe both classifiers share (monotone goals with
  /// `cache_availability_checks` only): the verdict memoized for
  /// `reachable` (= `completed` ∪ `available`), else `AchievableWith`'s,
  /// inserted into `memo`.
  bool MemoizedAchievable(VerdictMemo& memo, const DynamicBitset& reachable,
                          const DynamicBitset& completed,
                          const DynamicBitset& available);

  const Goal& goal_;
  const ExplorationEngine& engine_;
  const ExplorationOptions& options_;
  const GoalDrivenConfig& config_;
  ExplorationStats* tallies_;
  bool goal_is_monotone_;
  obs::StageAccumulator time_stage_;
  obs::StageAccumulator availability_stage_;

  /// Term index -> reachable set -> achievability verdict. Private to this
  /// oracle (one worker), so probes take no lock.
  std::unordered_map<int, VerdictMemo> availability_cache_;

  /// ClassifyBatch scratch (reused across batches; sized on first use).
  std::vector<int> batch_bounds_;
  std::unique_ptr<bool[]> batch_achievable_;
  size_t batch_achievable_capacity_ = 0;
  DynamicBitset batch_completed_scratch_;
  DynamicBitset batch_reachable_scratch_;
};

}  // namespace internal
}  // namespace coursenav

#endif  // COURSENAV_CORE_PRUNING_H_
