#include "core/pruning.h"

#include <cstdint>

#include "util/check.h"

namespace coursenav::internal {

PruningOracle::PruningOracle(const Goal& goal, const ExplorationEngine& engine,
                             const ExplorationOptions& options,
                             const GoalDrivenConfig& config,
                             ExplorationStats* tallies)
    : goal_(goal),
      engine_(engine),
      options_(options),
      config_(config),
      tallies_(tallies != nullptr ? tallies : &engine.tallies()),
      goal_is_monotone_(goal.IsMonotone()) {}

int PruningOracle::LeftAt(const DynamicBitset& completed) const {
  if (!config_.enable_time_pruning) return -1;
  return goal_.MinCoursesRemaining(completed);
}

int PruningOracle::MinSelectionSize(int left_parent, Term parent_term) const {
  if (!config_.enable_time_pruning) return 1;
  // Widen before multiplying: max_courses_per_term * horizon overflows int
  // for degenerate option sets (e.g. a far deadline with a huge per-term
  // cap), which would flip the lower bound positive and wrongly skip
  // selections. In int64 the product is exact; the result is at most
  // left_parent, which already fits an int.
  int64_t min_i =
      int64_t{left_parent} -
      int64_t{options_.max_courses_per_term} *
          (int64_t{engine_.end() - parent_term} - 1);
  return min_i > 1 ? static_cast<int>(min_i) : 1;
}

void PruningOracle::AccountSkippedTimePruned(int64_t count) {
  tallies_->pruned_time += count;
}

void PruningOracle::EmitStageSpans() const {
  const PruningOracle* self = this;
  EmitStageSpans({&self, 1});
}

void PruningOracle::EmitStageSpans(
    std::span<const PruningOracle* const> oracles) {
  if (oracles.empty() || !oracles.front()->time_stage_.enabled()) return;
  std::vector<const obs::StageAccumulator*> time_stages;
  std::vector<const obs::StageAccumulator*> availability_stages;
  int64_t pruned_time = 0;
  int64_t pruned_availability = 0;
  for (const PruningOracle* oracle : oracles) {
    time_stages.push_back(&oracle->time_stage_);
    availability_stages.push_back(&oracle->availability_stage_);
    pruned_time += oracle->tallies_->pruned_time;
    pruned_availability += oracle->tallies_->pruned_availability;
  }
  const GoalDrivenConfig& config = oracles.front()->config_;
  obs::StageAccumulator::EmitMean(
      obs::kSpanPruneTime, time_stages,
      {obs::SpanAttribute::Int("pruned", pruned_time),
       obs::SpanAttribute::Int("enabled", config.enable_time_pruning)});
  obs::StageAccumulator::EmitMean(
      obs::kSpanPruneAvailability, availability_stages,
      {obs::SpanAttribute::Int("pruned", pruned_availability),
       obs::SpanAttribute::Int("enabled",
                               config.enable_availability_pruning)});
}

void PruningOracle::CheckInvariants() const {
  const int universe =
      engine_.AvailableFrom(engine_.start()).universe_size();
  for (const auto& [term_index, per_term] : availability_cache_) {
    // Verdicts are keyed by *child* terms, which lie strictly inside
    // (start, end] of the exploration window.
    CN_CHECK_GT(term_index, engine_.start().index())
        << "availability cache keyed on a term before the start";
    CN_CHECK_LE(term_index, engine_.end().index())
        << "availability cache keyed on a term past the deadline";
    const DynamicBitset& available =
        engine_.AvailableFrom(Term::FromIndex(term_index));
    for (const auto& [reachable, achievable] : per_term) {
      (void)achievable;
      CN_CHECK_EQ(reachable.universe_size(), universe)
          << "cached reachable set sized for a different catalog";
      CN_CHECK(available.IsSubsetOf(reachable))
          << "cached reachable set at term " << term_index
          << " is missing courses the catalog offers from that term";
    }
  }
}

bool PruningOracle::MemoizedAchievable(VerdictMemo& memo,
                                       const DynamicBitset& reachable,
                                       const DynamicBitset& completed,
                                       const DynamicBitset& available) {
  auto it = memo.find(reachable);
  if (it != memo.end()) return it->second;
  const bool achievable = goal_.AchievableWith(completed, available);
  memo.emplace(reachable, achievable);
  return achievable;
}

PruningOracle::Verdict PruningOracle::ClassifyChild(
    const DynamicBitset& child_completed, int selection_size, Term child_term,
    int left_parent) {
  if (config_.enable_time_pruning) {
    obs::StageSample sample(&time_stage_);
    const int child_bound =
        options_.max_courses_per_term * (engine_.end() - child_term);
    // Fast certain-prune: one semester reduces `left` by at most |W|.
    if (left_parent - selection_size > child_bound) {
      tallies_->pruned_time += 1;
      return Verdict::kPrunedTime;
    }
    // Fast certain-keep for monotone goals: left(X ∪ W) <= left(X).
    bool needs_exact = !(goal_is_monotone_ && left_parent <= child_bound);
    if (needs_exact &&
        goal_.MinCoursesRemaining(child_completed) > child_bound) {
      tallies_->pruned_time += 1;
      return Verdict::kPrunedTime;
    }
  }
  if (config_.enable_availability_pruning) {
    obs::StageSample sample(&availability_stage_);
    const DynamicBitset& available = engine_.AvailableFrom(child_term);
    bool achievable;
    // The cache key is the reachable set, whose verdict is well-defined
    // only for monotone goals (with negative literals achievability depends
    // on the completed set itself, not just the union).
    if (config_.cache_availability_checks && goal_is_monotone_) {
      DynamicBitset reachable = child_completed;
      reachable |= available;
      achievable =
          MemoizedAchievable(availability_cache_[child_term.index()],
                             reachable, child_completed, available);
    } else {
      achievable = goal_.AchievableWith(child_completed, available);
    }
    if (!achievable) {
      tallies_->pruned_availability += 1;
      return Verdict::kPrunedAvailability;
    }
  }
  return Verdict::kKeep;
}

void PruningOracle::ClassifyBatch(const CandidateBatch& batch, Term child_term,
                                  int left_parent,
                                  std::vector<Verdict>* verdicts) {
  const size_t count = batch.size();
  verdicts->assign(count, Verdict::kKeep);
  if (count == 0) return;

  if (config_.enable_time_pruning) {
    obs::StageSample sample(&time_stage_);
    const int child_bound =
        options_.max_courses_per_term * (engine_.end() - child_term);
    // The monotone fast-keep test depends only on the parent's `left`, so
    // whether an exact bound is needed is decided once per batch; the exact
    // bounds themselves come from the goal's clause-major batch kernel.
    // (Bounds for fast-pruned rows are computed too — the kernel is pure,
    // so the verdicts are unaffected.)
    const bool needs_exact =
        !(goal_is_monotone_ && left_parent <= child_bound);
    if (needs_exact) {
      batch_bounds_.resize(count);
      goal_.MinCoursesRemainingBatch(batch.completed_view(),
                                     batch_bounds_.data());
    }
    // coursenav:hot — the batched time-verdict loop; the bounds buffer is
    // sized above and the availability phase (memo inserts) is outside
    // the region.
    for (size_t i = 0; i < count; ++i) {
      // Fast certain-prune: one semester reduces `left` by at most |W|.
      if (left_parent - batch.selection_size(i) > child_bound ||
          (needs_exact && batch_bounds_[i] > child_bound)) {
        (*verdicts)[i] = Verdict::kPrunedTime;
        tallies_->pruned_time += 1;
      }
    }
    // coursenav:hot-end
  }

  if (config_.enable_availability_pruning) {
    obs::StageSample sample(&availability_stage_);
    const DynamicBitset& available = engine_.AvailableFrom(child_term);
    if (config_.cache_availability_checks && goal_is_monotone_) {
      // The same memo probes as ClassifyChild's, row for row, but on two
      // scratch sets, so hits and misses alike allocate only on insert.
      if (batch_reachable_scratch_.universe_size() !=
          available.universe_size()) {
        batch_reachable_scratch_ = DynamicBitset(available.universe_size());
        batch_completed_scratch_ = DynamicBitset(available.universe_size());
      }
      VerdictMemo& memo = availability_cache_[child_term.index()];
      for (size_t i = 0; i < count; ++i) {
        if ((*verdicts)[i] != Verdict::kKeep) continue;
        batch_completed_scratch_.AssignWords(batch.completed_row(i));
        batch_reachable_scratch_.AssignWords(batch.completed_row(i));
        batch_reachable_scratch_ |= available;
        if (!MemoizedAchievable(memo, batch_reachable_scratch_,
                                batch_completed_scratch_, available)) {
          (*verdicts)[i] = Verdict::kPrunedAvailability;
          tallies_->pruned_availability += 1;
        }
      }
    } else {
      // Uncached (or non-monotone) goals: one batched achievability pass.
      // Time-pruned rows are evaluated too and ignored (pure function).
      if (batch_achievable_capacity_ < count) {
        batch_achievable_ = std::make_unique<bool[]>(count);
        batch_achievable_capacity_ = count;
      }
      goal_.AchievableWithBatch(batch.completed_view(), available,
                                batch_achievable_.get());
      for (size_t i = 0; i < count; ++i) {
        if ((*verdicts)[i] != Verdict::kKeep) continue;
        if (!batch_achievable_[i]) {
          (*verdicts)[i] = Verdict::kPrunedAvailability;
          tallies_->pruned_availability += 1;
        }
      }
    }
  }
}

}  // namespace coursenav::internal
