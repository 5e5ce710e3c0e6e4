#include "service/degradation.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "util/cancellation.h"
#include "util/string_util.h"

namespace coursenav {

namespace {

bool IsBudgetStatus(const Status& status) {
  return status.IsResourceExhausted() || status.IsDeadlineExceeded();
}

int64_t ResponseNodes(const ExplorationResponse& response) {
  if (response.generation.has_value()) {
    return response.generation->stats.nodes_created;
  }
  if (response.ranked.has_value()) {
    return response.ranked->stats.nodes_created;
  }
  return 0;
}

const Status& ResponseTermination(const ExplorationResponse& response) {
  static const Status ok = Status::OK();
  if (response.generation.has_value()) return response.generation->termination;
  if (response.ranked.has_value()) return response.ranked->termination;
  return ok;
}

/// True when the response carries anything a caller could use: a nonempty
/// partial graph or at least one ranked path.
bool HasPartialPayload(const ExplorationResponse& response) {
  if (response.generation.has_value()) {
    return response.generation->graph.num_nodes() > 0;
  }
  if (response.ranked.has_value()) return !response.ranked->paths.empty();
  return false;
}

}  // namespace

std::string DegradationReport::ToString() const {
  std::string out = StrFormat(
      "degradation: served at '%s'%s%s\n",
      std::string(DegradationLevelName(level_served)).c_str(),
      degraded ? " (degraded)" : "",
      exhausted ? ", every rung exhausted — answer is partial" : "");
  for (const DegradationRung& rung : rungs) {
    if (!rung.attempted) {
      out += StrFormat("  [%s] skipped: %s\n",
                       std::string(DegradationLevelName(rung.level)).c_str(),
                       rung.outcome.ToString().c_str());
      continue;
    }
    out += StrFormat(
        "  [%s] %s — %.1f/%.1f ms, %lld nodes\n",
        std::string(DegradationLevelName(rung.level)).c_str(),
        rung.outcome.ok() ? "served" : rung.outcome.ToString().c_str(),
        rung.seconds_spent * 1e3, rung.seconds_budget * 1e3,
        static_cast<long long>(rung.nodes_created));
  }
  return out;
}

JsonValue DegradationReport::ToJson() const {
  JsonValue::Object object;
  object["level_served"] =
      JsonValue(std::string(DegradationLevelName(level_served)));
  object["degraded"] = JsonValue(degraded);
  object["exhausted"] = JsonValue(exhausted);
  JsonValue::Array rung_array;
  rung_array.reserve(rungs.size());
  for (const DegradationRung& rung : rungs) {
    JsonValue::Object r;
    r["level"] = JsonValue(std::string(DegradationLevelName(rung.level)));
    r["attempted"] = JsonValue(rung.attempted);
    r["outcome"] = StatusToJson(rung.outcome);
    r["seconds_budget"] = JsonValue(rung.seconds_budget);
    r["seconds_spent"] = JsonValue(rung.seconds_spent);
    r["nodes_created"] = JsonValue(rung.nodes_created);
    rung_array.push_back(JsonValue(std::move(r)));
  }
  object["rungs"] = JsonValue(std::move(rung_array));
  return JsonValue(std::move(object));
}

Result<DegradationReport> DegradationReport::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("degradation report must be an object");
  }
  DegradationReport report;
  COURSENAV_ASSIGN_OR_RETURN(JsonValue level_value, json.Get("level_served"));
  COURSENAV_ASSIGN_OR_RETURN(std::string level_name, level_value.GetString());
  COURSENAV_ASSIGN_OR_RETURN(report.level_served,
                             ParseDegradationLevel(level_name));
  COURSENAV_ASSIGN_OR_RETURN(JsonValue degraded_value, json.Get("degraded"));
  COURSENAV_ASSIGN_OR_RETURN(report.degraded, degraded_value.GetBool());
  COURSENAV_ASSIGN_OR_RETURN(JsonValue exhausted_value,
                             json.Get("exhausted"));
  COURSENAV_ASSIGN_OR_RETURN(report.exhausted, exhausted_value.GetBool());
  COURSENAV_ASSIGN_OR_RETURN(JsonValue rungs_value, json.Get("rungs"));
  if (!rungs_value.is_array()) {
    return Status::InvalidArgument("'rungs' must be an array");
  }
  for (const JsonValue& rung_json : rungs_value.array()) {
    DegradationRung rung;
    COURSENAV_ASSIGN_OR_RETURN(JsonValue rl, rung_json.Get("level"));
    COURSENAV_ASSIGN_OR_RETURN(std::string rung_level, rl.GetString());
    COURSENAV_ASSIGN_OR_RETURN(rung.level,
                               ParseDegradationLevel(rung_level));
    COURSENAV_ASSIGN_OR_RETURN(JsonValue attempted,
                               rung_json.Get("attempted"));
    COURSENAV_ASSIGN_OR_RETURN(rung.attempted, attempted.GetBool());
    COURSENAV_ASSIGN_OR_RETURN(JsonValue outcome, rung_json.Get("outcome"));
    COURSENAV_RETURN_IF_ERROR(StatusFromJson(outcome, &rung.outcome));
    COURSENAV_ASSIGN_OR_RETURN(JsonValue budget,
                               rung_json.Get("seconds_budget"));
    COURSENAV_ASSIGN_OR_RETURN(rung.seconds_budget, budget.GetNumber());
    COURSENAV_ASSIGN_OR_RETURN(JsonValue spent,
                               rung_json.Get("seconds_spent"));
    COURSENAV_ASSIGN_OR_RETURN(rung.seconds_spent, spent.GetNumber());
    COURSENAV_ASSIGN_OR_RETURN(JsonValue nodes,
                               rung_json.Get("nodes_created"));
    COURSENAV_ASSIGN_OR_RETURN(rung.nodes_created, nodes.GetInt());
    report.rungs.push_back(std::move(rung));
  }
  return report;
}

std::vector<DegradationLevel> DefaultLadder(TaskType type) {
  switch (type) {
    case TaskType::kDeadlineDriven:
      return {DegradationLevel::kFull, DegradationLevel::kCountOnly};
    case TaskType::kGoalDriven:
      return {DegradationLevel::kFull, DegradationLevel::kAggressivePruning,
              DegradationLevel::kCountOnly};
    case TaskType::kRanked:
      return {DegradationLevel::kFull, DegradationLevel::kRankedSmallK,
              DegradationLevel::kCountOnly};
  }
  return {DegradationLevel::kFull};
}

Result<DegradedResponse> ExploreWithDegradation(
    const CourseNavigator& navigator, const ExplorationRequest& request,
    const DegradationPolicy& policy, cache::CacheOutcome* outcome) {
  if (outcome != nullptr) {
    *outcome = navigator.cache_enabled() ? cache::CacheOutcome::kBypass
                                         : cache::CacheOutcome::kDisabled;
  }
  std::vector<DegradationLevel> ladder =
      policy.ladder.empty() ? DefaultLadder(request.type) : policy.ladder;
  if (ladder.empty()) {
    return Status::InvalidArgument("degradation ladder is empty");
  }
  double time_fraction = policy.time_fraction;
  if (time_fraction <= 0.0 || time_fraction > 1.0) time_fraction = 0.5;

  // The ladder's overall clock: every rung's slice comes out of the
  // caller's single deadline, so degraded answers arrive inside it.
  DeadlineBudget overall(request.options.limits.max_seconds,
                         request.options.cancel);

  obs::ScopedSpan ladder_span(obs::kSpanDegradeLadder);
  ladder_span.AddInt("rungs", static_cast<int64_t>(ladder.size()));
  static obs::Counter* responses_served =
      obs::GlobalMetrics().GetCounter(obs::kMetricDegradationServed);

  DegradedResponse best;  // best partial answer salvaged so far
  bool have_partial = false;
  DegradationLevel partial_level = DegradationLevel::kFull;
  cache::CacheOutcome partial_outcome = cache::CacheOutcome::kDisabled;
  DegradationReport report;

  for (size_t i = 0; i < ladder.size(); ++i) {
    const DegradationLevel level = ladder[i];
    const bool last_rung = (i + 1 == ladder.size());
    DegradationRung rung;
    rung.level = level;

    // One span per rung; generator/counting spans nest underneath it. The
    // span closes on every exit from this iteration (continue or return).
    obs::ScopedSpan rung_span(obs::kSpanDegradeRung);
    rung_span.AddString("level", DegradationLevelName(level));
    // Annotates the rung span with the final rung record and archives the
    // rung in the report; every iteration exit goes through this.
    auto archive_rung = [&] {
      if (rung.attempted) {
        static obs::Counter* rungs_attempted =
            obs::GlobalMetrics().GetCounter(obs::kMetricDegradationRungs);
        rungs_attempted->Increment();
      }
      rung_span.AddInt("attempted", rung.attempted);
      rung_span.AddString("outcome",
                          StatusCodeToString(rung.outcome.code()));
      rung_span.AddDouble("seconds_budget", rung.seconds_budget);
      rung_span.AddDouble("seconds_spent", rung.seconds_spent);
      rung_span.AddInt("nodes_created", rung.nodes_created);
      report.rungs.push_back(std::move(rung));
    };

    if (request.options.cancel.IsCancelled()) {
      return Status::Cancelled("cancelled by caller");
    }

    // Slice the remaining time for this rung.
    double rung_seconds = 0.0;  // 0 = unlimited (request had no deadline)
    if (overall.max_seconds() > 0) {
      double remaining = overall.RemainingSeconds();
      if (remaining <= 0) {
        rung.attempted = false;
        rung.outcome =
            Status::DeadlineExceeded("no time remaining for this rung");
        archive_rung();
        continue;
      }
      rung_seconds = last_rung ? remaining : remaining * time_fraction;
    }

    // Build the rung's request: each rung is a plan rewrite of the
    // original. FailedPrecondition = this rung does not apply (no goal /
    // no ranking); record it as skipped and descend.
    Result<ExplorationRequest> rewritten =
        plan::RewriteForDegradation(request, level, policy);
    if (!rewritten.ok()) {
      rung.attempted = false;
      rung.outcome = rewritten.status();
      archive_rung();
      continue;
    }
    ExplorationRequest attempt = std::move(rewritten).value();
    attempt.options.limits.max_seconds = rung_seconds;

    rung.attempted = true;
    rung.seconds_budget = rung_seconds;
    const double started = overall.ElapsedSeconds();

    if (level == DegradationLevel::kCountOnly) {
      Result<CountingResult> counted =
          request.goal != nullptr
              ? navigator.CountGoal(attempt.start, attempt.end_term,
                                    *attempt.goal, attempt.options,
                                    attempt.config)
              : navigator.CountDeadline(attempt.start, attempt.end_term,
                                        attempt.options);
      rung.seconds_spent = overall.ElapsedSeconds() - started;
      if (counted.ok()) {
        rung.nodes_created = counted->distinct_statuses;
        rung.outcome = Status::OK();
        archive_rung();
        report.level_served = level;
        report.degraded = (level != DegradationLevel::kFull);
        best.count = std::move(counted).value();
        best.report = std::move(report);
        responses_served->Increment();
        return best;
      }
      if (counted.status().IsCancelled()) return counted.status();
      if (!IsBudgetStatus(counted.status())) return counted.status();
      rung.outcome = counted.status();
      archive_rung();
      continue;
    }

    cache::CacheOutcome rung_outcome = cache::CacheOutcome::kDisabled;
    Result<std::shared_ptr<const ExplorationResponse>> response =
        navigator.Explore(attempt, &rung_outcome);
    rung.seconds_spent = overall.ElapsedSeconds() - started;
    if (!response.ok()) {
      if (response.status().IsCancelled() ||
          !IsBudgetStatus(response.status())) {
        return response.status();
      }
      rung.outcome = response.status();
      archive_rung();
      continue;
    }

    rung.nodes_created = ResponseNodes(**response);
    Status termination = ResponseTermination(**response);
    if (termination.IsCancelled()) return termination;
    if (termination.ok()) {
      rung.outcome = Status::OK();
      archive_rung();
      report.level_served = level;
      report.degraded = (level != DegradationLevel::kFull);
      best.response = std::move(response).value();
      best.count.reset();
      best.report = std::move(report);
      if (outcome != nullptr) *outcome = rung_outcome;
      responses_served->Increment();
      return best;
    }

    // The rung fell on a budget, but its truncated output may still be the
    // best partial answer the ladder can salvage.
    rung.outcome = termination;
    archive_rung();
    if (HasPartialPayload(**response) &&
        (!have_partial ||
         ResponseNodes(**response) >= ResponseNodes(*best.response))) {
      best.response = std::move(response).value();
      have_partial = true;
      partial_level = level;
      partial_outcome = rung_outcome;
    }
  }

  // Every rung fell. Serve the best partial answer with the full story.
  report.exhausted = true;
  report.degraded = true;
  report.level_served = partial_level;
  best.report = std::move(report);
  if (!have_partial) {
    // Nothing was salvageable (e.g. a pure count-only ladder): surface the
    // last budget verdict instead of an empty response.
    for (auto it = best.report.rungs.rbegin(); it != best.report.rungs.rend();
         ++it) {
      if (it->attempted && !it->outcome.ok()) return it->outcome;
    }
    return Status::ResourceExhausted("every degradation rung exhausted");
  }
  if (outcome != nullptr) *outcome = partial_outcome;
  responses_served->Increment();
  return best;
}

Result<DegradedResponse> ExploreWithDegradation(
    const CourseNavigator& navigator, const ExplorationRequest& request,
    cache::CacheOutcome* outcome) {
  if (request.degradation.has_value()) {
    return ExploreWithDegradation(navigator, request, *request.degradation,
                                  outcome);
  }
  return ExploreWithDegradation(navigator, request, DegradationPolicy{},
                                outcome);
}

}  // namespace coursenav
