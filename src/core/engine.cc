#include "core/engine.h"

#include <array>
#include <atomic>
#include <iterator>
#include <string_view>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace coursenav::internal {
namespace {

/// The process-global counter each run tally is added to.
struct TallySeries {
  std::string_view name;
  int64_t ExplorationStats::*tally;
};
constexpr TallySeries kTallySeries[] = {
    {obs::kMetricNodesCreated, &ExplorationStats::nodes_created},
    {obs::kMetricEdgesCreated, &ExplorationStats::edges_created},
    {obs::kMetricNodesExpanded, &ExplorationStats::nodes_expanded},
    {obs::kMetricTerminalPaths, &ExplorationStats::terminal_paths},
    {obs::kMetricGoalPaths, &ExplorationStats::goal_paths},
    {obs::kMetricDeadEndPaths, &ExplorationStats::dead_end_paths},
    {obs::kMetricPrunedTime, &ExplorationStats::pruned_time},
    {obs::kMetricPrunedAvailability, &ExplorationStats::pruned_availability},
    {obs::kMetricBudgetChecks, &ExplorationStats::budget_checks},
};

}  // namespace

ExplorationEngine::ExplorationEngine(const Catalog& catalog,
                                     const OfferingSchedule& schedule,
                                     const ExplorationOptions& options,
                                     Term start, Term end)
    : catalog_(catalog),
      schedule_(schedule),
      options_(options),
      budget_(options.limits.max_seconds, options.cancel),
      start_(start),
      end_(end),
      empty_set_(catalog.size()) {
  int horizon = end - start;  // semesters in [start, end)
  if (horizon < 0) horizon = 0;
  available_from_.assign(static_cast<size_t>(horizon),
                         DynamicBitset(catalog.size()));
  // Suffix unions, last enrollable semester first.
  for (int k = horizon - 1; k >= 0; --k) {
    DynamicBitset acc = schedule.OfferedIn(start + k);
    if (options.avoid_courses.has_value()) {
      acc.Subtract(*options.avoid_courses);
    }
    if (k + 1 < horizon) acc |= available_from_[static_cast<size_t>(k + 1)];
    available_from_[static_cast<size_t>(k)] = std::move(acc);
  }
}

ExplorationEngine::~ExplorationEngine() {
  // Handles are interned once per process, each tally's by the first run
  // that bumps it, so /metrics lists the series runs have bumped. Interning
  // all nine up front moved the registry's permanent allocations and raised
  // paper_batch's peak RSS (docs/observability.md, "Peak RSS and registry
  // growth").
  static std::array<std::atomic<obs::Counter*>, std::size(kTallySeries)>
      tally_counters{};
  for (size_t i = 0; i < tally_counters.size(); ++i) {
    const int64_t value = tallies_.*kTallySeries[i].tally;
    if (value == 0) continue;
    obs::Counter* counter = tally_counters[i].load(std::memory_order_acquire);
    if (counter == nullptr) {
      counter = obs::GlobalMetrics().GetCounter(kTallySeries[i].name);
      tally_counters[i].store(counter, std::memory_order_release);
    }
    counter->Increment(value);
  }
  static obs::Counter* const runs =
      obs::GlobalMetrics().GetCounter(obs::kMetricRuns);
  static obs::Histogram* const runtime_us =
      obs::GlobalMetrics().GetHistogram(obs::kMetricRuntimeMicros);
  static obs::Gauge* const peak_nodes =
      obs::GlobalMetrics().GetGauge(obs::kMetricPeakNodes);
  runs->Increment();
  runtime_us->Observe(static_cast<int64_t>(ElapsedSeconds() * 1e6));
  peak_nodes->UpdateMax(tallies_.nodes_created);
}

const DynamicBitset& ExplorationEngine::AvailableFrom(Term term) const {
  int k = term - start_;
  if (k < 0) k = 0;
  if (k >= static_cast<int>(available_from_.size())) return empty_set_;
  return available_from_[static_cast<size_t>(k)];
}

bool ExplorationEngine::FutureCourseExists(const DynamicBitset& completed,
                                           Term term) const {
  const DynamicBitset& later = AvailableFrom(term.Next());
  DynamicBitset remaining = later;
  remaining.Subtract(completed);
  return !remaining.empty();
}

Status CheckGraphLimits(const ExplorationLimits& limits,
                        bool allocation_failed, int64_t nodes,
                        size_t memory_bytes) {
  if (allocation_failed) {
    return Status::ResourceExhausted(
        "simulated allocation failure (fault injection)");
  }
  if (limits.max_nodes > 0 && nodes >= limits.max_nodes) {
    return Status::ResourceExhausted(
        StrFormat("node budget of %lld reached",
                  static_cast<long long>(limits.max_nodes)));
  }
  if (limits.max_memory_bytes > 0 && memory_bytes >= limits.max_memory_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "memory budget of %zu bytes reached", limits.max_memory_bytes));
  }
  return Status::OK();
}

Status ExplorationEngine::CheckBudget(const LearningGraph& graph,
                                      size_t search_bytes) {
  ++tallies_.budget_checks;
  COURSENAV_RETURN_IF_ERROR(CheckGraphLimits(
      options_.limits, graph.allocation_failed(), graph.num_nodes(),
      graph.MemoryUsage() + search_bytes));
  return budget_.Check();
}

}  // namespace coursenav::internal
