#include "plan/request.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expr/parser.h"
#include "requirements/expr_goal.h"

namespace coursenav {

std::string_view TaskTypeName(TaskType type) {
  switch (type) {
    case TaskType::kDeadlineDriven:
      return "deadline";
    case TaskType::kGoalDriven:
      return "goal";
    case TaskType::kRanked:
      return "ranked";
  }
  return "unknown";
}

Result<TaskType> ParseTaskType(std::string_view name) {
  for (TaskType type : {TaskType::kDeadlineDriven, TaskType::kGoalDriven,
                        TaskType::kRanked}) {
    if (TaskTypeName(type) == name) return type;
  }
  return Status::InvalidArgument("unknown exploration task type '" +
                                 std::string(name) + "'");
}

std::string_view DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kAggressivePruning:
      return "aggressive-pruning";
    case DegradationLevel::kRankedSmallK:
      return "ranked-small-k";
    case DegradationLevel::kCountOnly:
      return "count-only";
  }
  return "unknown";
}

Result<DegradationLevel> ParseDegradationLevel(std::string_view name) {
  for (DegradationLevel level :
       {DegradationLevel::kFull, DegradationLevel::kAggressivePruning,
        DegradationLevel::kRankedSmallK, DegradationLevel::kCountOnly}) {
    if (DegradationLevelName(level) == name) return level;
  }
  return Status::InvalidArgument("unknown degradation level '" +
                                 std::string(name) + "'");
}

namespace {

/// Renders a course set as a JSON array of registrar codes, in id order
/// (deterministic for a given catalog).
JsonValue CourseSetToJson(const DynamicBitset& set, const Catalog& catalog) {
  JsonValue::Array codes;
  set.ForEach([&](int id) {
    codes.push_back(
        JsonValue(catalog.course(static_cast<CourseId>(id)).code));
  });
  return JsonValue(std::move(codes));
}

Result<DynamicBitset> CourseSetFromJson(const JsonValue& json,
                                        const Catalog& catalog,
                                        std::string_view what) {
  if (!json.is_array()) {
    // Appended piecewise: `"'" + std::string(...)` trips GCC 12's
    // -Wrestrict false positive in optimized builds.
    std::string message = "'";
    message += what;
    message += "' must be an array of course codes";
    return Status::InvalidArgument(message);
  }
  std::vector<std::string> codes;
  codes.reserve(json.array().size());
  for (const JsonValue& code : json.array()) {
    COURSENAV_ASSIGN_OR_RETURN(std::string text, code.GetString());
    codes.push_back(std::move(text));
  }
  return catalog.CourseSetFromCodes(codes);
}

Result<Term> TermFromJson(const JsonValue& parent, std::string_view key) {
  COURSENAV_ASSIGN_OR_RETURN(JsonValue value, parent.Get(key));
  COURSENAV_ASSIGN_OR_RETURN(std::string text, value.GetString());
  return Term::Parse(text);
}

JsonValue DegradationPolicyToJson(const DegradationPolicy& policy) {
  JsonValue::Object object;
  JsonValue::Array ladder;
  ladder.reserve(policy.ladder.size());
  for (DegradationLevel level : policy.ladder) {
    ladder.push_back(JsonValue(std::string(DegradationLevelName(level))));
  }
  object["ladder"] = JsonValue(std::move(ladder));
  object["time_fraction"] = JsonValue(policy.time_fraction);
  object["degraded_top_k"] = JsonValue(policy.degraded_top_k);
  object["degraded_max_nodes"] = JsonValue(policy.degraded_max_nodes);
  object["count_max_nodes"] = JsonValue(policy.count_max_nodes);
  return JsonValue(std::move(object));
}

Result<DegradationPolicy> DegradationPolicyFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("'degradation' must be an object");
  }
  DegradationPolicy policy;
  if (json.Has("ladder")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue ladder, json.Get("ladder"));
    if (!ladder.is_array()) {
      return Status::InvalidArgument("'ladder' must be an array");
    }
    for (const JsonValue& entry : ladder.array()) {
      COURSENAV_ASSIGN_OR_RETURN(std::string name, entry.GetString());
      COURSENAV_ASSIGN_OR_RETURN(DegradationLevel level,
                                 ParseDegradationLevel(name));
      policy.ladder.push_back(level);
    }
  }
  if (json.Has("time_fraction")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue value, json.Get("time_fraction"));
    COURSENAV_ASSIGN_OR_RETURN(policy.time_fraction, value.GetNumber());
  }
  if (json.Has("degraded_top_k")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue value, json.Get("degraded_top_k"));
    COURSENAV_ASSIGN_OR_RETURN(int64_t k, value.GetInt());
    policy.degraded_top_k = static_cast<int>(k);
  }
  if (json.Has("degraded_max_nodes")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                               json.Get("degraded_max_nodes"));
    COURSENAV_ASSIGN_OR_RETURN(policy.degraded_max_nodes, value.GetInt());
  }
  if (json.Has("count_max_nodes")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue value, json.Get("count_max_nodes"));
    COURSENAV_ASSIGN_OR_RETURN(policy.count_max_nodes, value.GetInt());
  }
  return policy;
}

/// The ranking names ExplorationRequestFromJson can resolve without
/// external inputs. ReliabilityRanking needs an OfferingProbabilityModel
/// and is deliberately absent.
Result<std::shared_ptr<const RankingFunction>> RankingFromSpec(
    std::string_view spec, const Catalog& catalog) {
  if (spec == "time") {
    return std::static_pointer_cast<const RankingFunction>(
        std::make_shared<const TimeRanking>());
  }
  if (spec == "workload") {
    return std::static_pointer_cast<const RankingFunction>(
        std::make_shared<const WorkloadRanking>(&catalog));
  }
  if (spec == "bottleneck-workload") {
    return std::static_pointer_cast<const RankingFunction>(
        std::make_shared<const BottleneckWorkloadRanking>(&catalog));
  }
  return Status::InvalidArgument(
      "unknown ranking '" + std::string(spec) +
      "' (JSON-constructible rankings: time, workload, bottleneck-workload)");
}

}  // namespace

Result<JsonValue> ExplorationRequestToJson(const ExplorationRequest& request,
                                           const Catalog& catalog) {
  if (request.goal != nullptr && request.goal_spec.empty()) {
    return Status::InvalidArgument(
        "request goal has no declarative goal_spec; in-memory goals cannot "
        "be serialized");
  }
  if (request.ranking != nullptr && request.ranking_spec.empty()) {
    return Status::InvalidArgument(
        "request ranking has no declarative ranking_spec; in-memory "
        "rankings cannot be serialized");
  }

  JsonValue::Object object;

  JsonValue::Object start;
  start["term"] = JsonValue(request.start.term.ToString());
  start["completed"] = CourseSetToJson(request.start.completed, catalog);
  object["start"] = JsonValue(std::move(start));

  object["end_term"] = JsonValue(request.end_term.ToString());
  object["type"] = JsonValue(std::string(TaskTypeName(request.type)));
  if (!request.goal_spec.empty()) {
    object["goal"] = JsonValue(request.goal_spec);
  }
  if (!request.ranking_spec.empty()) {
    object["ranking"] = JsonValue(request.ranking_spec);
  }
  object["top_k"] = JsonValue(request.top_k);

  JsonValue::Object options;
  options["max_courses_per_term"] =
      JsonValue(request.options.max_courses_per_term);
  if (request.options.avoid_courses.has_value()) {
    options["avoid"] =
        CourseSetToJson(*request.options.avoid_courses, catalog);
  }
  options["allow_voluntary_skip"] =
      JsonValue(request.options.allow_voluntary_skip);
  options["num_threads"] = JsonValue(request.options.num_threads);
  JsonValue::Object limits;
  limits["max_nodes"] = JsonValue(request.options.limits.max_nodes);
  limits["max_memory_bytes"] =
      JsonValue(static_cast<int64_t>(request.options.limits.max_memory_bytes));
  limits["max_seconds"] = JsonValue(request.options.limits.max_seconds);
  options["limits"] = JsonValue(std::move(limits));
  object["options"] = JsonValue(std::move(options));

  JsonValue::Object config;
  config["enable_time_pruning"] =
      JsonValue(request.config.enable_time_pruning);
  config["enable_availability_pruning"] =
      JsonValue(request.config.enable_availability_pruning);
  config["cache_availability_checks"] =
      JsonValue(request.config.cache_availability_checks);
  object["config"] = JsonValue(std::move(config));

  if (request.filters.active()) {
    JsonValue::Object filters;
    filters["max_term_hours"] = JsonValue(request.filters.max_term_hours);
    filters["max_skips"] = JsonValue(request.filters.max_skips);
    object["filters"] = JsonValue(std::move(filters));
  }

  if (request.degradation.has_value()) {
    object["degradation"] = DegradationPolicyToJson(*request.degradation);
  }

  return JsonValue(std::move(object));
}

Result<ExplorationRequest> ExplorationRequestFromJson(const JsonValue& json,
                                                      const Catalog& catalog) {
  COURSENAV_RETURN_IF_ERROR(ValidateRequestJsonSchema(json));
  ExplorationRequest request;

  COURSENAV_ASSIGN_OR_RETURN(JsonValue start, json.Get("start"));
  COURSENAV_ASSIGN_OR_RETURN(request.start.term,
                             TermFromJson(start, "term"));
  request.start.completed = catalog.NewCourseSet();
  if (start.Has("completed")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue completed, start.Get("completed"));
    COURSENAV_ASSIGN_OR_RETURN(
        request.start.completed,
        CourseSetFromJson(completed, catalog, "completed"));
  }

  COURSENAV_ASSIGN_OR_RETURN(request.end_term,
                             TermFromJson(json, "end_term"));

  COURSENAV_ASSIGN_OR_RETURN(JsonValue type_value, json.Get("type"));
  COURSENAV_ASSIGN_OR_RETURN(std::string type_name, type_value.GetString());
  COURSENAV_ASSIGN_OR_RETURN(request.type, ParseTaskType(type_name));

  if (json.Has("goal")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue goal_value, json.Get("goal"));
    COURSENAV_ASSIGN_OR_RETURN(request.goal_spec, goal_value.GetString());
    COURSENAV_ASSIGN_OR_RETURN(expr::Expr parsed,
                               expr::ParseBoolExpr(request.goal_spec));
    COURSENAV_ASSIGN_OR_RETURN(std::shared_ptr<const ExprGoal> goal,
                               ExprGoal::Create(parsed, catalog));
    request.goal = std::move(goal);
  }

  if (json.Has("ranking")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue ranking_value, json.Get("ranking"));
    COURSENAV_ASSIGN_OR_RETURN(request.ranking_spec,
                               ranking_value.GetString());
    COURSENAV_ASSIGN_OR_RETURN(request.ranking,
                               RankingFromSpec(request.ranking_spec, catalog));
  }

  if (json.Has("top_k")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue k_value, json.Get("top_k"));
    COURSENAV_ASSIGN_OR_RETURN(int64_t k, k_value.GetInt());
    request.top_k = static_cast<int>(k);
  }

  if (json.Has("options")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue options, json.Get("options"));
    if (options.Has("max_courses_per_term")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                 options.Get("max_courses_per_term"));
      COURSENAV_ASSIGN_OR_RETURN(int64_t m, value.GetInt());
      request.options.max_courses_per_term = static_cast<int>(m);
    }
    if (options.Has("avoid")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue avoid, options.Get("avoid"));
      COURSENAV_ASSIGN_OR_RETURN(
          request.options.avoid_courses,
          CourseSetFromJson(avoid, catalog, "avoid"));
    }
    if (options.Has("allow_voluntary_skip")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                 options.Get("allow_voluntary_skip"));
      COURSENAV_ASSIGN_OR_RETURN(request.options.allow_voluntary_skip,
                                 value.GetBool());
    }
    if (options.Has("num_threads")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                 options.Get("num_threads"));
      COURSENAV_ASSIGN_OR_RETURN(int64_t threads, value.GetInt());
      request.options.num_threads = static_cast<int>(threads);
    }
    if (options.Has("limits")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue limits, options.Get("limits"));
      if (limits.Has("max_nodes")) {
        COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                   limits.Get("max_nodes"));
        COURSENAV_ASSIGN_OR_RETURN(request.options.limits.max_nodes,
                                   value.GetInt());
      }
      if (limits.Has("max_memory_bytes")) {
        COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                   limits.Get("max_memory_bytes"));
        COURSENAV_ASSIGN_OR_RETURN(int64_t bytes, value.GetInt());
        request.options.limits.max_memory_bytes =
            static_cast<size_t>(bytes);
      }
      if (limits.Has("max_seconds")) {
        COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                   limits.Get("max_seconds"));
        COURSENAV_ASSIGN_OR_RETURN(request.options.limits.max_seconds,
                                   value.GetNumber());
      }
    }
  }

  if (json.Has("config")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue config, json.Get("config"));
    struct Flag {
      const char* key;
      bool* slot;
    };
    const Flag flags[] = {
        {"enable_time_pruning", &request.config.enable_time_pruning},
        {"enable_availability_pruning",
         &request.config.enable_availability_pruning},
        {"cache_availability_checks",
         &request.config.cache_availability_checks},
    };
    for (const Flag& flag : flags) {
      if (!config.Has(flag.key)) continue;
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value, config.Get(flag.key));
      COURSENAV_ASSIGN_OR_RETURN(*flag.slot, value.GetBool());
    }
  }

  if (json.Has("filters")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue filters, json.Get("filters"));
    if (filters.Has("max_term_hours")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                 filters.Get("max_term_hours"));
      COURSENAV_ASSIGN_OR_RETURN(request.filters.max_term_hours,
                                 value.GetNumber());
    }
    if (filters.Has("max_skips")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value,
                                 filters.Get("max_skips"));
      COURSENAV_ASSIGN_OR_RETURN(int64_t skips, value.GetInt());
      request.filters.max_skips = static_cast<int>(skips);
    }
  }

  if (json.Has("degradation")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue degradation,
                               json.Get("degradation"));
    COURSENAV_ASSIGN_OR_RETURN(request.degradation,
                               DegradationPolicyFromJson(degradation));
  }

  return request;
}

Status ValidateRequestJsonSchema(const JsonValue& json) {
  COURSENAV_RETURN_IF_ERROR(CheckObjectKeys(
      json, "request",
      {"start", "end_term", "type", "goal", "ranking", "top_k", "options",
       "config", "filters", "degradation"}));
  if (json.Has("start")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue start, json.Get("start"));
    COURSENAV_RETURN_IF_ERROR(
        CheckObjectKeys(start, "start", {"term", "completed"}));
  }
  if (json.Has("options")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue options, json.Get("options"));
    COURSENAV_RETURN_IF_ERROR(CheckObjectKeys(
        options, "options",
        {"max_courses_per_term", "avoid", "allow_voluntary_skip",
         "num_threads", "limits"}));
    if (options.Has("limits")) {
      COURSENAV_ASSIGN_OR_RETURN(JsonValue limits, options.Get("limits"));
      COURSENAV_RETURN_IF_ERROR(CheckObjectKeys(
          limits, "options.limits",
          {"max_nodes", "max_memory_bytes", "max_seconds"}));
    }
  }
  if (json.Has("config")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue config, json.Get("config"));
    COURSENAV_RETURN_IF_ERROR(CheckObjectKeys(
        config, "config",
        {"enable_time_pruning", "enable_availability_pruning",
         "cache_availability_checks"}));
  }
  if (json.Has("filters")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue filters, json.Get("filters"));
    COURSENAV_RETURN_IF_ERROR(CheckObjectKeys(
        filters, "filters", {"max_term_hours", "max_skips"}));
  }
  if (json.Has("degradation")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue degradation,
                               json.Get("degradation"));
    COURSENAV_RETURN_IF_ERROR(CheckObjectKeys(
        degradation, "degradation",
        {"ladder", "time_fraction", "degraded_top_k", "degraded_max_nodes",
         "count_max_nodes"}));
  }
  return Status::OK();
}

}  // namespace coursenav
