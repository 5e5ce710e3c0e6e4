#include "core/counting.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/combinations.h"
#include "core/engine.h"
#include "core/expand.h"
#include "obs/trace.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/simd/simd.h"
#include "util/string_util.h"

namespace coursenav {

namespace {

/// One semester of the layered count: a flat open-addressing table mapping
/// a status's completed-set words to the number of learning paths that
/// reach it from the start status (saturating at UINT64_MAX). Each slot is
/// `words + 1` consecutive uint64s — the key words, then the multiplicity —
/// probed linearly over a power-of-two slot count. A zero multiplicity marks
/// an empty slot: every stored multiplicity is at least 1.
class StatusLayer {
 public:
  explicit StatusLayer(size_t words) : words_(words), stride_(words + 1) {}

  size_t size() const { return size_; }

  /// Heap bytes the slot array holds.
  size_t bytes() const { return slots_.capacity() * sizeof(uint64_t); }

  /// True when one more status would push the load factor past 3/4; the
  /// caller then charges `grown_bytes()` and calls `Grow()` before `Add`.
  bool full() const { return (size_ + 1) * 4 > capacity_ * 3; }
  size_t grown_bytes() const {
    return GrownCapacity() * stride_ * sizeof(uint64_t);
  }

  /// Doubles the slot count and rehashes every status.
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    const size_t old_capacity = capacity_;
    capacity_ = GrownCapacity();
    slots_.assign(capacity_ * stride_, 0);
    size_ = 0;
    for (size_t slot = 0; slot < old_capacity; ++slot) {
      const uint64_t* row = old.data() + slot * stride_;
      if (row[words_] != 0) Add(row, row[words_]);
    }
  }

  /// Adds `paths` to the status whose completed-set words are `key`,
  /// inserting it when absent; returns true for a new status. The layer
  /// must not be `full()`.
  bool Add(const uint64_t* key, uint64_t paths) {
    const size_t mask = capacity_ - 1;
    for (size_t slot = static_cast<size_t>(HashWords(key, words_)) & mask;;
         slot = (slot + 1) & mask) {
      uint64_t* row = slots_.data() + slot * stride_;
      if (row[words_] == 0) {
        std::copy(key, key + words_, row);
        row[words_] = paths;
        ++size_;
        return true;
      }
      if (simd::Equal(row, key, words_)) {
        row[words_] = SaturatingAdd(row[words_], paths);
        return false;
      }
    }
  }

  /// Empties the layer, keeping its slot array for the next semester.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
  }

  /// Calls `fn(const uint64_t* key, uint64_t paths)` per status, in slot
  /// order, until `fn` returns false.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t slot = 0; slot < capacity_; ++slot) {
      const uint64_t* row = slots_.data() + slot * stride_;
      if (row[words_] != 0 && !fn(row, row[words_])) return;
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t GrownCapacity() const {
    return capacity_ == 0 ? kMinCapacity : capacity_ * 2;
  }

  size_t words_;
  size_t stride_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  std::vector<uint64_t> slots_;
};

/// Term-layered forward counter shared by the deadline and goal modes.
///
/// Every edge of the expansion tree advances exactly one semester, so the
/// statuses of semester t+1 are exactly the kept children of semester t's.
/// The run expands one semester's layer at a time: each distinct status is
/// expanded once and adds its path multiplicity to each kept child in the
/// next layer, while goal, end-semester and dead-end statuses retire their
/// multiplicity into the totals. Only two layers are ever live.
class CountingRun {
 public:
  CountingRun(const Catalog& catalog, const OfferingSchedule& schedule,
              const ExplorationOptions& options, Term start_term,
              Term end_term, const internal::ExpandSpec& spec)
      : engine_(catalog, schedule, options, start_term, end_term),
        expander_(engine_, spec),
        completed_(catalog.size()),
        current_(completed_.word_count()),
        next_(completed_.word_count()) {}

  CountingRun(const CountingRun&) = delete;
  CountingRun& operator=(const CountingRun&) = delete;

  Result<CountingResult> Run(const EnrollmentStatus& start) {
    obs::ScopedSpan run_span(obs::kSpanCountPaths);
    Status counted = CountLayers(start);
    // Distinct statuses stand in for nodes in the counting rung's metrics
    // (they are what bounds counting work, as max_nodes does graphs).
    engine_.tallies().nodes_created += statuses_;
    expander_.EmitStageSpans();
    if (CN_DCHECK_IS_ON() && expander_.oracle() != nullptr) {
      expander_.oracle()->CheckInvariants();
    }
    run_span.AddInt("distinct_statuses", statuses_);
    if (!counted.ok()) return counted;
    CountingResult result;
    result.total_paths = total_paths_;
    result.goal_paths = goal_paths_;
    // goal_paths <= total_paths, so one saturated total covers both.
    result.saturated = total_paths_ == UINT64_MAX;
    result.distinct_statuses = statuses_;
    result.runtime_seconds = engine_.ElapsedSeconds();
    run_span.AddInt("total_paths_low64",
                    static_cast<int64_t>(result.total_paths));
    return result;
  }

 private:
  /// The layer sink: a kept child adds the expanded status's path count to
  /// its status in the next semester's table. Budgets are checked once per
  /// status (in `Expand`), and the status cap exactly when a status is
  /// added, so the per-selection checks are no-ops.
  struct LayerSink {
    CountingRun& run;
    uint64_t paths;
    Status stop;

    bool NearNodeBudget(size_t) const { return false; }
    bool CheckBudget() const { return true; }
    bool Add(const internal::CandidateBatch& batch, size_t row) {
      Status status = run.AddChild(batch.completed_row(row), paths);
      if (status.ok()) return true;
      stop = std::move(status);
      return false;
    }
  };

  Status CountLayers(const EnrollmentStatus& start) {
    COURSENAV_RETURN_IF_ERROR(AddChild(start.completed.word_data(), 1));
    Status status = Status::OK();
    for (Term term = start.term; next_.size() > 0; term = term.Next()) {
      std::swap(current_, next_);
      next_.Clear();
      current_.ForEach([&](const uint64_t* completed, uint64_t paths) {
        status = Expand(term, completed, paths);
        return status.ok();
      });
      COURSENAV_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  /// Expands one status of the `term` layer reached by `paths` paths; its
  /// option set is derived only once it proves not to be a leaf.
  Status Expand(Term term, const uint64_t* completed_words, uint64_t paths) {
    COURSENAV_RETURN_IF_ERROR(CheckBudget());
    completed_.AssignWords(completed_words);
    LayerSink sink{*this, paths, Status::OK()};
    switch (expander_.Expand(term, completed_, sink)) {
      case internal::Expansion::kGoal:
        Retire(paths, /*reaches_goal=*/true);
        break;
      case internal::Expansion::kMissed:
      case internal::Expansion::kDeadEnd:
        Retire(paths, /*reaches_goal=*/false);
        break;
      case internal::Expansion::kExpanded:
        break;
      case internal::Expansion::kStopped:
        return sink.stop;
    }
    return Status::OK();
  }

  /// Adds `paths` paths to a status of the next layer. The status cap is
  /// exact: the count fails as soon as distinct statuses exceed it.
  Status AddChild(const uint64_t* completed_words, uint64_t paths) {
    if (next_.full()) {
      const ExplorationLimits& limits = engine_.options().limits;
      if (limits.max_memory_bytes > 0 &&
          current_.bytes() + next_.grown_bytes() > limits.max_memory_bytes) {
        return Status::ResourceExhausted(
            StrFormat("memory budget of %zu bytes reached while counting",
                      limits.max_memory_bytes));
      }
      next_.Grow();
    }
    if (next_.Add(completed_words, paths)) {
      ++statuses_;
      const int64_t max_nodes = engine_.options().limits.max_nodes;
      if (max_nodes > 0 && statuses_ > max_nodes) {
        return Status::ResourceExhausted(
            StrFormat("status budget of %lld exceeded while counting",
                      static_cast<long long>(max_nodes)));
      }
    }
    return Status::OK();
  }

  /// Retires a leaf status reached by `paths` paths into the totals.
  void Retire(uint64_t paths, bool reaches_goal) {
    total_paths_ = SaturatingAdd(total_paths_, paths);
    if (reaches_goal) goal_paths_ = SaturatingAdd(goal_paths_, paths);
  }

  /// One check per expanded status.
  Status CheckBudget() {
    engine_.tallies().budget_checks += 1;
    if (FaultInjector* injector = ActiveFaultInjector();
        injector != nullptr && injector->ShouldInject(kFaultSiteCountAlloc)) {
      return Status::ResourceExhausted(
          "simulated allocation failure (fault injection)");
    }
    return engine_.budget().Check();
  }

  internal::ExplorationEngine engine_;
  internal::Expander expander_;
  DynamicBitset completed_;  // the expanded status's completed set
  StatusLayer current_;  // the semester being expanded
  StatusLayer next_;     // its children
  int64_t statuses_ = 0;
  uint64_t total_paths_ = 0;
  uint64_t goal_paths_ = 0;
};

}  // namespace

Result<CountingResult> CountDeadlineDrivenPaths(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const EnrollmentStatus& start, Term end_term,
    const ExplorationOptions& options) {
  COURSENAV_RETURN_IF_ERROR(
      ValidateExplorationInputs(catalog, schedule, start, options));
  if (end_term <= start.term) {
    return Status::InvalidArgument("end semester must be after the start");
  }
  CountingRun run(catalog, schedule, options, start.term, end_term,
                  /*spec=*/{});
  return run.Run(start);
}

Result<CountingResult> CountGoalDrivenPaths(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const EnrollmentStatus& start, Term end_term, const Goal& goal,
    const ExplorationOptions& options, const GoalDrivenConfig& config) {
  COURSENAV_RETURN_IF_ERROR(
      ValidateExplorationInputs(catalog, schedule, start, options));
  if (end_term <= start.term) {
    return Status::InvalidArgument("end semester must be after the start");
  }
  CountingRun run(catalog, schedule, options, start.term, end_term,
                  {&goal, &config});
  return run.Run(start);
}

}  // namespace coursenav
