#include "core/engine.h"

#include "util/string_util.h"

namespace coursenav::internal {

ExplorationEngine::ExplorationEngine(const Catalog& catalog,
                                     const OfferingSchedule& schedule,
                                     const ExplorationOptions& options,
                                     Term start, Term end)
    : catalog_(catalog),
      schedule_(schedule),
      options_(options),
      metrics_(&registry_),
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
  metrics_.Publish();
  obs::MetricRegistry& global = obs::GlobalMetrics();
  registry_.AccumulateInto(&global);
  global.GetCounter(obs::kMetricRuns)->Increment();
  global.GetHistogram(obs::kMetricRuntimeMicros)
      ->Observe(static_cast<int64_t>(ElapsedSeconds() * 1e6));
  global.GetGauge(obs::kMetricPeakNodes)->UpdateMax(metrics_.nodes_created);
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

Status ExplorationEngine::CheckBudget(const LearningGraph& graph) {
  ++metrics_.budget_checks;
  COURSENAV_RETURN_IF_ERROR(
      CheckGraphLimits(options_.limits, graph.allocation_failed(),
                       graph.num_nodes(), graph.MemoryUsage()));
  return budget_.Check();
}

}  // namespace coursenav::internal
