// coursenav — command-line front end to the CourseNavigator library.
//
// Subcommands:
//   explore   all learning paths to a deadline (Algorithm 1)
//   goal      goal-driven learning paths with pruning (§4.2)
//   topk      ranked top-k learning paths (§4.3)
//   request   run a declarative ExplorationRequest JSON file (docs/planner.md)
//   count     term-layered path counting (no materialization)
//   options   the option set Y for one enrollment status
//   validate  check a catalog JSON file (and optionally transcripts)
//
// Every exploration subcommand builds a declarative ExplorationRequest and
// runs it through the planner/executor pipeline (src/plan/); --show-plan
// prints the lowered operator DAG before executing.
//
// The catalog comes from --catalog=<file.json> (see
// parsers/catalog_loader.h for the schema) or, with --demo, the bundled
// Brandeis-like evaluation dataset.
//
// Examples:
//   coursenav goal --demo --start "Fall 2013" --end "Fall 2015" --major
//   coursenav topk --demo --start F12 --end F15 --major --ranking time --k 5
//   coursenav explore --catalog dept.json --start "Fall 2014"
//       --end "Fall 2016" --max-per-term 2 --format dot
//   coursenav count --demo --start F12 --end F15 --goal "COSI11A and COSI21A"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schedule_history.h"
#include "data/brandeis_cs.h"
#include "expr/parser.h"
#include "graph/analytics.h"
#include "graph/export.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parsers/catalog_loader.h"
#include "parsers/transcript_parser.h"
#include "plan/planner.h"
#include "requirements/expr_goal.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_server.h"
#include "service/degradation.h"
#include "service/navigator.h"
#include "service/visualizer.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

constexpr const char* kUsage = R"USAGE(usage: coursenav <command> [flags]

commands:
  explore    all learning paths to a deadline (deadline-driven)
  goal       goal-driven learning paths with pruning
  topk       ranked top-k learning paths
  request    run a declarative ExplorationRequest JSON file
  count      count paths without materializing the graph
  options    show the option set for one status
  audit      degree-audit a completed-course set (demo major)
  validate   validate a catalog JSON file (and optional transcripts)
  serve      run the multi-tenant exploration server (TCP, length-prefixed
             JSON frames; see docs/serving.md)
  replay     replay a JSONL file of request envelopes against a server
  admin      query a running server's admin plane (/metrics, /healthz,
             /statusz) and print the response body

common flags:
  --catalog=<file>     catalog+schedule JSON (or --demo for the bundled one)
  --demo               use the bundled 38-course evaluation dataset
  --start=<term>       start semester, e.g. "Fall 2013" or F13
  --end=<term>         end semester (deadline)
  --completed=A,B      already-completed course codes
  --max-per-term=<m>   course load limit (default 3)
  --avoid=A,B          courses never to take
  --max-nodes=<n>      node budget (0 = unlimited)
  --max-seconds=<s>    wall-clock budget (0 = unlimited)
  --threads=<n>        worker threads for explore/goal frontier expansion
                       (0 = serial, the default; results are identical at
                       any thread count; topk is always serial)
  --time-budget=<s>    alias for --max-seconds (wins when both are set)
  --degrade            on budget exhaustion, walk the degradation ladder
                       (full -> aggressive pruning / smaller k -> count-only)
                       and print the DegradationReport instead of failing
  --show-plan          print the lowered operator plan (Source -> Expand ->
                       Prune -> Rank -> Limit -> Filter) before executing

request flags:
  --request-json=<file> declarative ExplorationRequest JSON (schema in
                       docs/planner.md); pair with --catalog/--demo.
                       '-' reads the document from stdin

serve flags:
  --port=<p>           TCP port (default 0 = ephemeral; the bound port is
                       printed as "serving on <addr>:<port>")
  --workers=<n>        executor worker threads (default 4)
  --queue-depth=<n>    admission queue bound (default 64)
  --tenant-queue=<n>   queued requests per tenant (default 16)
  --tenant-inflight=<n> concurrent requests per tenant (default 8)
  --max-tenants=<n>    distinct tenants tracked (default 64)
  --default-deadline-ms=<ms> deadline for requests that name none
  --max-request-seconds=<s>  per-request execution cap (default 5)
  --max-request-nodes=<n>    per-request node cap (default 500000)
  --no-degrade         answer budget blow-ups with timeouts instead of the
                       degradation ladder
  --cache=on|off       route execution through the process-wide epoch-keyed
                       request cache (default on; a warm answer is the
                       stored cold answer itself — see docs/caching.md)
  --serve-seconds=<s>  serve for s seconds, then drain and exit
                       (default 0: serve until stdin reaches EOF)
  --drain-seconds=<s>  drain budget before in-flight work is cancelled
  --admin-port=<p>     also serve the admin plane (/metrics, /healthz,
                       /statusz) on this loopback port (0 = ephemeral,
                       printed as "admin on <addr>:<port>"; default: off)
  --trace-sample=<n>   keep every nth request's span tree in the flight
                       recorder (default 16; 0 = only client opt-ins and
                       non-ok outcomes)
  --recorder-out=<f>   write the flight-recorder dump (JSON lines) here on
                       automatic overload dumps and again at exit

admin flags:
  --port=<p>           admin-plane port of the running server (required)
  --host=<h>           admin-plane host (default 127.0.0.1)
  --target=<t>         endpoint to fetch (default /statusz; also /metrics,
                       /healthz, /statusz?recorder=1); exits non-zero
                       unless the server answers 200

replay flags:
  --requests-file=<f>  JSONL of request envelopes ('-' = stdin)
  --server=<host:port> replay against a running server; without it an
                       embedded in-process server (--catalog/--demo) serves
  --concurrency=<n>    concurrent client sessions (default 4)
  --repeat=<n>         replay the file n times (default 1)
  --max-attempts=<n>   per-request retry budget under overload (default 5)
  --trace-out=<f>      replay-specific: opt every request into tracing and
                       write the returned span trees as JSON lines (one
                       span per line, tagged with its trace_id); also
                       prints a per-tenant SLO summary after the run

goal/topk/count flags:
  --goal=<expr>        boolean goal, e.g. "CS1 and (CS2 or CS3)"
  --complete=A,B       goal: complete all listed courses
  --major              goal: the demo dataset's CS major (demo only)

topk flags:
  --ranking=<name>     time | workload | bottleneck | reliability
  --k=<k>              number of paths (default 10)
  --release-end=<term> last term with a final schedule (reliability)
  --max-term-hours=<h> filter: per-semester workload ceiling
  --max-skips=<n>      filter: maximum skipped semesters

output flags:
  --format=<fmt>       summary | paths | json | dot   (default summary)
  --limit=<n>          paths to print (default 10)
  --stats-format=<f>   text | json — how search stats and the degradation
                       report are rendered (default text)

observability flags:
  --trace-out=<file>   record spans for the run and write them as JSON
                       lines (one span object per line)
  --metrics-out=<file> write a Prometheus-style text snapshot of the
                       process metrics after the command finishes
)USAGE";

struct CommonArgs {
  std::unique_ptr<data::BrandeisDataset> demo;
  std::unique_ptr<CatalogBundle> bundle;
  const Catalog* catalog = nullptr;
  const OfferingSchedule* schedule = nullptr;
  EnrollmentStatus start;
  Term end_term;
  ExplorationOptions options;
  std::shared_ptr<const Goal> goal;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// ReadFile, with the conventional '-' meaning stdin — so captured traffic
/// can be piped straight into `request` and `replay`.
Result<std::string> ReadFileOrStdin(const std::string& path) {
  if (path != "-") return ReadFile(path);
  std::ostringstream buffer;
  buffer << std::cin.rdbuf();
  return buffer.str();
}

std::vector<std::string> SplitCodes(const std::string& csv) {
  std::vector<std::string> out;
  for (std::string_view field : SplitAndTrim(csv, ',')) {
    out.emplace_back(field);
  }
  return out;
}

Status WriteFileContents(const std::string& path,
                         const std::string& contents) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot write '" + path + "'");
  out << contents;
  if (!out) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

/// True when --stats-format=json; rejects anything but text/json.
Result<bool> WantJsonStats(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(std::string stats_format,
                             flags.GetString("stats-format", "text"));
  if (stats_format == "json") return true;
  if (stats_format == "text") return false;
  return Status::InvalidArgument("unknown --stats-format '" + stats_format +
                                 "' (want text or json)");
}

/// --show-plan: print the lowered operator DAG (and any planner notes,
/// e.g. "ranked runs serial") before the request executes.
Status MaybeShowPlan(const FlagSet& flags, const ExplorationRequest& request) {
  if (!flags.GetBool("show-plan")) return Status::OK();
  COURSENAV_ASSIGN_OR_RETURN(plan::ExplorationPlan lowered,
                             plan::Planner::Lower(request));
  std::printf("%s\n", lowered.Describe().c_str());
  return Status::OK();
}

/// Loads the registrar dataset (--demo or --catalog=<file>) into `common`;
/// shared by the flag-driven subcommands and `request` (which takes
/// everything else from the JSON file).
Status LoadDataset(const FlagSet& flags, CommonArgs& common) {
  if (flags.GetBool("demo")) {
    common.demo = std::make_unique<data::BrandeisDataset>(
        data::BuildBrandeisDataset());
    common.catalog = &common.demo->catalog;
    common.schedule = &common.demo->schedule;
    return Status::OK();
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string path, flags.GetString("catalog", ""));
  if (path.empty()) {
    return Status::InvalidArgument("need --catalog=<file> or --demo");
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  COURSENAV_ASSIGN_OR_RETURN(CatalogBundle bundle, LoadCatalogFromJson(text));
  common.bundle = std::make_unique<CatalogBundle>(std::move(bundle));
  common.catalog = &common.bundle->catalog;
  common.schedule = &common.bundle->schedule;
  return Status::OK();
}

Result<CommonArgs> LoadCommon(const FlagSet& flags, bool need_goal) {
  CommonArgs common;
  COURSENAV_RETURN_IF_ERROR(LoadDataset(flags, common));

  COURSENAV_ASSIGN_OR_RETURN(std::string start_text,
                             flags.GetString("start", ""));
  COURSENAV_ASSIGN_OR_RETURN(std::string end_text, flags.GetString("end", ""));
  if (start_text.empty() || end_text.empty()) {
    return Status::InvalidArgument("need --start and --end terms");
  }
  COURSENAV_ASSIGN_OR_RETURN(Term start_term, Term::Parse(start_text));
  COURSENAV_ASSIGN_OR_RETURN(common.end_term, Term::Parse(end_text));

  COURSENAV_ASSIGN_OR_RETURN(std::string completed_csv,
                             flags.GetString("completed", ""));
  DynamicBitset completed = common.catalog->NewCourseSet();
  if (!completed_csv.empty()) {
    COURSENAV_ASSIGN_OR_RETURN(
        completed, common.catalog->CourseSetFromCodes(
                       SplitCodes(completed_csv)));
  }
  common.start = {start_term, std::move(completed)};

  COURSENAV_ASSIGN_OR_RETURN(int64_t m, flags.GetInt("max-per-term", 3));
  common.options.max_courses_per_term = static_cast<int>(m);
  COURSENAV_ASSIGN_OR_RETURN(std::string avoid_csv,
                             flags.GetString("avoid", ""));
  if (!avoid_csv.empty()) {
    COURSENAV_ASSIGN_OR_RETURN(
        DynamicBitset avoid,
        common.catalog->CourseSetFromCodes(SplitCodes(avoid_csv)));
    common.options.avoid_courses = std::move(avoid);
  }
  COURSENAV_ASSIGN_OR_RETURN(int64_t max_nodes,
                             flags.GetInt("max-nodes", 5'000'000));
  common.options.limits.max_nodes = max_nodes;
  COURSENAV_ASSIGN_OR_RETURN(double max_seconds,
                             flags.GetDouble("max-seconds", 0.0));
  common.options.limits.max_seconds = max_seconds;
  COURSENAV_ASSIGN_OR_RETURN(double time_budget,
                             flags.GetDouble("time-budget", 0.0));
  if (time_budget > 0) common.options.limits.max_seconds = time_budget;
  COURSENAV_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 0));
  if (threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  common.options.num_threads = static_cast<int>(threads);

  if (need_goal) {
    COURSENAV_ASSIGN_OR_RETURN(std::string goal_expr,
                               flags.GetString("goal", ""));
    COURSENAV_ASSIGN_OR_RETURN(std::string complete_csv,
                               flags.GetString("complete", ""));
    if (flags.GetBool("major")) {
      if (common.demo == nullptr) {
        return Status::InvalidArgument("--major requires --demo");
      }
      common.goal = common.demo->cs_major;
    } else if (!goal_expr.empty()) {
      COURSENAV_ASSIGN_OR_RETURN(expr::Expr parsed,
                                 expr::ParseBoolExpr(goal_expr));
      COURSENAV_ASSIGN_OR_RETURN(
          std::shared_ptr<const ExprGoal> goal,
          ExprGoal::Create(parsed, *common.catalog));
      common.goal = goal;
    } else if (!complete_csv.empty()) {
      COURSENAV_ASSIGN_OR_RETURN(
          std::shared_ptr<const ExprGoal> goal,
          ExprGoal::CompleteAll(SplitCodes(complete_csv), *common.catalog));
      common.goal = goal;
    } else {
      return Status::InvalidArgument(
          "need --goal=<expr>, --complete=<codes>, or --major");
    }
  }
  return common;
}

/// Renders a materialized answer to `request`, the request that ran: the
/// JSON form derives each status's options with its avoid set.
Status EmitGeneration(const FlagSet& flags, const CommonArgs& common,
                      const ExplorationRequest& request,
                      const GenerationResult& result) {
  COURSENAV_ASSIGN_OR_RETURN(std::string format,
                             flags.GetString("format", "summary"));
  COURSENAV_ASSIGN_OR_RETURN(int64_t limit, flags.GetInt("limit", 10));
  if (!result.termination.ok()) {
    std::printf("note: exploration stopped early (%s); results are "
                "partial.\n",
                result.termination.ToString().c_str());
  }
  if (format == "summary") {
    std::printf("%s", RenderGraphSummary(result.graph, result.stats).c_str());
    GraphAnalytics analytics =
        AnalyzeLearningGraph(result.graph, *common.catalog);
    std::printf("\n%s", analytics.ToString(*common.catalog).c_str());
  } else if (format == "paths") {
    std::vector<LearningPath> paths;
    for (NodeId leaf : result.graph.GoalNodes()) {
      paths.push_back(LearningPath::FromGraph(result.graph, leaf));
      if (static_cast<int64_t>(paths.size()) >= limit) break;
    }
    std::printf("%s",
                RenderPaths(paths, *common.catalog,
                            static_cast<int>(limit))
                    .c_str());
  } else if (format == "json") {
    std::printf("%s\n",
                LearningGraphToJson(result.graph, *common.catalog,
                                    *common.schedule,
                                    request.options.avoid_courses)
                    .Dump(2)
                    .c_str());
  } else if (format == "dot") {
    std::printf("%s", LearningGraphToDot(result.graph, *common.catalog)
                          .c_str());
  } else {
    return Status::InvalidArgument("unknown --format '" + format + "'");
  }
  COURSENAV_ASSIGN_OR_RETURN(bool json_stats, WantJsonStats(flags));
  if (json_stats) {
    std::printf("%s\n", result.stats.ToJson().Dump(2).c_str());
  }
  return Status::OK();
}

/// Renders a ranked response. When the plan carried a Filter stage the
/// executor records the pre-filter path count and the filter description;
/// surface them the same way the CLI always has.
Status EmitRanked(const FlagSet& flags, const CommonArgs& common,
                  const ExplorationResponse& response) {
  const RankedResult& result = *response.ranked;
  if (response.paths_before_filters >= 0) {
    std::printf("filters kept %zu of %zu paths (%s)\n\n", result.paths.size(),
                static_cast<size_t>(response.paths_before_filters),
                response.filter_description.c_str());
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string format,
                             flags.GetString("format", "paths"));
  COURSENAV_ASSIGN_OR_RETURN(int64_t limit, flags.GetInt("limit", 10));
  COURSENAV_ASSIGN_OR_RETURN(bool json_stats, WantJsonStats(flags));
  if (format == "json") {
    std::printf("%s\n", LearningPathsToJson(result.paths, *common.catalog)
                            .Dump(2)
                            .c_str());
  } else {
    std::printf("%s", RenderPaths(result.paths, *common.catalog,
                                  static_cast<int>(limit))
                          .c_str());
    if (json_stats) {
      std::printf("%s\n", result.stats.ToJson().Dump(2).c_str());
    } else {
      std::printf("\nsearch stats: %s\n", result.stats.ToString().c_str());
    }
  }
  return Status::OK();
}

Status EmitCount(const CountingResult& counted) {
  std::printf("total paths: %llu%s\n",
              static_cast<unsigned long long>(counted.total_paths),
              counted.saturated ? " (saturated)" : "");
  std::printf("goal paths: %llu\n",
              static_cast<unsigned long long>(counted.goal_paths));
  std::printf("distinct statuses: %lld, %.3f s\n",
              static_cast<long long>(counted.distinct_statuses),
              counted.runtime_seconds);
  return Status::OK();
}

/// Output path for --degrade: the DegradationReport first, then whatever
/// payload survived the ladder (graph, ranked paths, or a bare count).
Status EmitDegraded(const FlagSet& flags, const CommonArgs& common,
                    const ExplorationRequest& request,
                    const DegradedResponse& degraded) {
  COURSENAV_ASSIGN_OR_RETURN(bool json_stats, WantJsonStats(flags));
  if (json_stats) {
    std::printf("%s\n", degraded.report.ToJson().Dump(2).c_str());
  } else {
    std::printf("%s\n", degraded.report.ToString().c_str());
  }
  if (degraded.count.has_value()) {
    return EmitCount(*degraded.count);
  }
  if (degraded.response->generation.has_value()) {
    return EmitGeneration(flags, common, request,
                          *degraded.response->generation);
  }
  if (degraded.response->ranked.has_value()) {
    const RankedResult& ranked = *degraded.response->ranked;
    COURSENAV_ASSIGN_OR_RETURN(int64_t limit, flags.GetInt("limit", 10));
    std::printf("%s", RenderPaths(ranked.paths, *common.catalog,
                                  static_cast<int>(limit))
                          .c_str());
    if (json_stats) {
      std::printf("%s\n", ranked.stats.ToJson().Dump(2).c_str());
    } else {
      std::printf("\nsearch stats: %s\n", ranked.stats.ToString().c_str());
    }
  }
  return Status::OK();
}

Status RunExplore(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(CommonArgs common,
                             LoadCommon(flags, /*need_goal=*/false));
  ExplorationRequest request;
  request.start = common.start;
  request.end_term = common.end_term;
  request.type = TaskType::kDeadlineDriven;
  request.options = common.options;
  COURSENAV_RETURN_IF_ERROR(MaybeShowPlan(flags, request));
  CourseNavigator navigator(common.catalog, common.schedule);
  if (flags.GetBool("degrade")) {
    COURSENAV_ASSIGN_OR_RETURN(
        DegradedResponse degraded,
        ExploreWithDegradation(navigator, request));
    return EmitDegraded(flags, common, request, degraded);
  }
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response,
      navigator.Explore(request));
  return EmitGeneration(flags, common, request, *response->generation);
}

Status RunGoal(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(CommonArgs common,
                             LoadCommon(flags, /*need_goal=*/true));
  ExplorationRequest request;
  request.start = common.start;
  request.end_term = common.end_term;
  request.type = TaskType::kGoalDriven;
  request.goal = common.goal;
  request.options = common.options;
  COURSENAV_RETURN_IF_ERROR(MaybeShowPlan(flags, request));
  CourseNavigator navigator(common.catalog, common.schedule);
  if (flags.GetBool("degrade")) {
    COURSENAV_ASSIGN_OR_RETURN(
        DegradedResponse degraded,
        ExploreWithDegradation(navigator, request));
    return EmitDegraded(flags, common, request, degraded);
  }
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response,
      navigator.Explore(request));
  return EmitGeneration(flags, common, request, *response->generation);
}

Status RunTopK(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(CommonArgs common,
                             LoadCommon(flags, /*need_goal=*/true));
  COURSENAV_ASSIGN_OR_RETURN(std::string ranking_name,
                             flags.GetString("ranking", "time"));
  COURSENAV_ASSIGN_OR_RETURN(int64_t k, flags.GetInt("k", 10));

  std::unique_ptr<RankingFunction> ranking;
  std::unique_ptr<OfferingProbabilityModel> model;
  if (ranking_name == "time") {
    ranking = std::make_unique<TimeRanking>();
  } else if (ranking_name == "workload") {
    ranking = std::make_unique<WorkloadRanking>(common.catalog);
  } else if (ranking_name == "bottleneck") {
    ranking = std::make_unique<BottleneckWorkloadRanking>(common.catalog);
  } else if (ranking_name == "reliability") {
    COURSENAV_ASSIGN_OR_RETURN(std::string release_text,
                               flags.GetString("release-end", ""));
    Term release_end = common.start.term.Next();
    if (!release_text.empty()) {
      COURSENAV_ASSIGN_OR_RETURN(release_end, Term::Parse(release_text));
    }
    ScheduleHistory history;
    history.ImportSchedule(*common.schedule);
    model = std::make_unique<OfferingProbabilityModel>(
        common.schedule, release_end, std::move(history), 0.5);
    ranking = std::make_unique<ReliabilityRanking>(model.get());
  } else {
    return Status::InvalidArgument("unknown --ranking '" + ranking_name +
                                   "'");
  }

  ExplorationRequest request;
  request.start = common.start;
  request.end_term = common.end_term;
  request.type = TaskType::kRanked;
  request.goal = common.goal;
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), ranking.get());
  request.top_k = static_cast<int>(k);
  request.options = common.options;
  // Declarative post-generation filters (§6 future work, implemented):
  // the plan's Filter stage runs them after Limit and records the
  // pre-filter count for the "filters kept" line.
  COURSENAV_ASSIGN_OR_RETURN(request.filters.max_term_hours,
                             flags.GetDouble("max-term-hours", 0.0));
  COURSENAV_ASSIGN_OR_RETURN(int64_t max_skips,
                             flags.GetInt("max-skips", -1));
  request.filters.max_skips = static_cast<int>(max_skips);
  COURSENAV_RETURN_IF_ERROR(MaybeShowPlan(flags, request));

  CourseNavigator navigator(common.catalog, common.schedule);
  if (flags.GetBool("degrade")) {
    COURSENAV_ASSIGN_OR_RETURN(
        DegradedResponse degraded,
        ExploreWithDegradation(navigator, request));
    return EmitDegraded(flags, common, request, degraded);
  }
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response,
      navigator.Explore(request));
  return EmitRanked(flags, common, *response);
}

/// `coursenav request`: the whole exploration is a JSON document. The
/// request file carries start/end/type/goal/ranking/budgets/filters (and
/// optionally its own degradation policy); only the dataset and output
/// flags come from the command line.
Status RunRequest(const FlagSet& flags) {
  CommonArgs common;
  COURSENAV_RETURN_IF_ERROR(LoadDataset(flags, common));
  COURSENAV_ASSIGN_OR_RETURN(std::string path,
                             flags.GetString("request-json", ""));
  if (path.empty()) {
    return Status::InvalidArgument("need --request-json=<file> ('-' = stdin)");
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string text, ReadFileOrStdin(path));
  COURSENAV_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  COURSENAV_ASSIGN_OR_RETURN(
      ExplorationRequest request,
      ExplorationRequestFromJson(json, *common.catalog));
  COURSENAV_RETURN_IF_ERROR(MaybeShowPlan(flags, request));

  CourseNavigator navigator(common.catalog, common.schedule);
  if (flags.GetBool("degrade") || request.degradation.has_value()) {
    COURSENAV_ASSIGN_OR_RETURN(
        DegradedResponse degraded,
        ExploreWithDegradation(navigator, request));
    return EmitDegraded(flags, common, request, degraded);
  }
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response,
      navigator.Explore(request));
  if (response->ranked.has_value()) {
    return EmitRanked(flags, common, *response);
  }
  return EmitGeneration(flags, common, request, *response->generation);
}

Status RunCount(const FlagSet& flags) {
  bool has_goal = flags.Has("goal") || flags.Has("complete") ||
                  flags.GetBool("major");
  COURSENAV_ASSIGN_OR_RETURN(CommonArgs common, LoadCommon(flags, has_goal));
  CourseNavigator navigator(common.catalog, common.schedule);
  CountingResult counted;
  if (has_goal) {
    COURSENAV_ASSIGN_OR_RETURN(
        counted, navigator.CountGoal(common.start, common.end_term,
                                     *common.goal, common.options));
  } else {
    COURSENAV_ASSIGN_OR_RETURN(
        counted, navigator.CountDeadline(common.start, common.end_term,
                                         common.options));
  }
  return EmitCount(counted);
}

Status RunOptions(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(CommonArgs common,
                             LoadCommon(flags, /*need_goal=*/false));
  DynamicBitset options = ComputeOptions(
      *common.catalog, common.schedule->OfferedIn(common.start.term),
      common.start.completed, common.options.avoid_courses);
  std::printf("options in %s: %s\n", common.start.term.ToString().c_str(),
              common.catalog->CourseSetToString(options).c_str());
  return Status::OK();
}

Status RunAudit(const FlagSet& flags) {
  if (!flags.GetBool("demo")) {
    return Status::InvalidArgument("audit currently supports --demo (the "
                                   "bundled CS major)");
  }
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  COURSENAV_ASSIGN_OR_RETURN(std::string completed_csv,
                             flags.GetString("completed", ""));
  DynamicBitset completed = dataset.catalog.NewCourseSet();
  if (!completed_csv.empty()) {
    COURSENAV_ASSIGN_OR_RETURN(
        completed,
        dataset.catalog.CourseSetFromCodes(SplitCodes(completed_csv)));
  }
  DegreeAudit audit = dataset.cs_major->Audit(completed);
  std::printf("%s", audit.ToString(dataset.catalog).c_str());
  return Status::OK();
}

Status RunValidate(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(std::string path, flags.GetString("catalog", ""));
  if (path.empty()) return Status::InvalidArgument("need --catalog=<file>");
  COURSENAV_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  COURSENAV_ASSIGN_OR_RETURN(CatalogBundle bundle, LoadCatalogFromJson(text));
  std::printf("catalog OK: %d courses", bundle.catalog.size());
  if (!bundle.schedule.empty()) {
    std::printf(", offerings %s - %s",
                bundle.schedule.first_term().ToString().c_str(),
                bundle.schedule.last_term().ToString().c_str());
  }
  std::printf("\n");

  COURSENAV_ASSIGN_OR_RETURN(std::string transcripts_path,
                             flags.GetString("transcripts", ""));
  if (!transcripts_path.empty()) {
    COURSENAV_ASSIGN_OR_RETURN(std::string csv, ReadFile(transcripts_path));
    COURSENAV_ASSIGN_OR_RETURN(std::vector<Transcript> transcripts,
                               ParseTranscriptsCsv(csv, bundle.catalog));
    std::printf("transcripts OK: %zu students\n", transcripts.size());
  }
  return Status::OK();
}

/// Builds the server configuration from the serve/replay flag set.
Result<serve::ServerConfig> ServerConfigFromFlags(const FlagSet& flags) {
  serve::ServerConfig config;
  COURSENAV_ASSIGN_OR_RETURN(int64_t workers, flags.GetInt("workers", 4));
  config.num_workers = static_cast<int>(workers);
  COURSENAV_ASSIGN_OR_RETURN(int64_t depth, flags.GetInt("queue-depth", 64));
  config.admission.max_queue_depth = static_cast<int>(depth);
  COURSENAV_ASSIGN_OR_RETURN(int64_t tenant_queue,
                             flags.GetInt("tenant-queue", 16));
  config.admission.max_queued_per_tenant = static_cast<int>(tenant_queue);
  COURSENAV_ASSIGN_OR_RETURN(int64_t tenant_inflight,
                             flags.GetInt("tenant-inflight", 8));
  config.admission.max_inflight_per_tenant = static_cast<int>(tenant_inflight);
  COURSENAV_ASSIGN_OR_RETURN(int64_t max_tenants,
                             flags.GetInt("max-tenants", 64));
  config.admission.max_tenants = static_cast<int>(max_tenants);
  COURSENAV_ASSIGN_OR_RETURN(double default_deadline_ms,
                             flags.GetDouble("default-deadline-ms", 2000.0));
  config.admission.default_deadline_seconds = default_deadline_ms / 1e3;
  COURSENAV_ASSIGN_OR_RETURN(config.max_seconds_per_request,
                             flags.GetDouble("max-request-seconds", 5.0));
  COURSENAV_ASSIGN_OR_RETURN(config.max_nodes_per_request,
                             flags.GetInt("max-request-nodes", 500'000));
  config.degrade_by_default = !flags.GetBool("no-degrade");
  COURSENAV_ASSIGN_OR_RETURN(int64_t trace_sample,
                             flags.GetInt("trace-sample", 16));
  config.trace_sample_every = static_cast<int>(trace_sample);
  COURSENAV_ASSIGN_OR_RETURN(std::string cache_flag,
                             flags.GetString("cache", "on"));
  if (cache_flag == "on") {
    config.enable_cache = true;
  } else if (cache_flag == "off") {
    config.enable_cache = false;
  } else {
    return Status::InvalidArgument("--cache must be 'on' or 'off', got '" +
                                   cache_flag + "'");
  }
  return config;
}

void PrintServerStats(const serve::ServerStats& stats) {
  std::printf(
      "server stats: submitted=%lld ok=%lld degraded=%lld timeout=%lld "
      "shed=%lld rejected=%lld cancelled=%lld slow_client=%lld failed=%lld "
      "faults_injected=%lld\n",
      static_cast<long long>(stats.submitted), static_cast<long long>(stats.ok),
      static_cast<long long>(stats.degraded),
      static_cast<long long>(stats.timeout), static_cast<long long>(stats.shed),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.cancelled),
      static_cast<long long>(stats.slow_client),
      static_cast<long long>(stats.failed),
      static_cast<long long>(stats.faults_injected));
  std::printf("request cache: hits=%lld misses=%lld bypass=%lld\n",
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_misses),
              static_cast<long long>(stats.cache_bypass));
  for (const auto& [tenant, counters] : stats.tenants) {
    std::printf("  tenant %s: admitted=%lld shed=%lld completed=%lld\n",
                tenant.c_str(), static_cast<long long>(counters.admitted_total),
                static_cast<long long>(counters.shed_total),
                static_cast<long long>(counters.completed_total));
  }
}

/// `coursenav serve`: the socket front end over the exploration server.
Status RunServe(const FlagSet& flags) {
  CommonArgs common;
  COURSENAV_RETURN_IF_ERROR(LoadDataset(flags, common));
  COURSENAV_ASSIGN_OR_RETURN(serve::ServerConfig config,
                             ServerConfigFromFlags(flags));
  COURSENAV_ASSIGN_OR_RETURN(int64_t port, flags.GetInt("port", 0));
  COURSENAV_ASSIGN_OR_RETURN(double serve_seconds,
                             flags.GetDouble("serve-seconds", 0.0));
  COURSENAV_ASSIGN_OR_RETURN(double drain_seconds,
                             flags.GetDouble("drain-seconds", 5.0));
  COURSENAV_ASSIGN_OR_RETURN(int64_t admin_port,
                             flags.GetInt("admin-port", -1));
  COURSENAV_ASSIGN_OR_RETURN(std::string recorder_out,
                             flags.GetString("recorder-out", ""));

  serve::ExplorationServer core(common.catalog, common.schedule, config);
  if (!recorder_out.empty()) {
    // The automatic dump fires on the first non-ok outcome after a quiet
    // spell; the same file is rewritten with the full ring at exit.
    core.recorder().SetAutoDumpSink([recorder_out](const std::string& dump) {
      Status written = WriteFileContents(recorder_out, dump);
      if (!written.ok()) {
        std::fprintf(stderr, "note: recorder dump failed: %s\n",
                     written.ToString().c_str());
      }
    });
  }
  core.Start();
  serve::SocketConfig socket_config;
  socket_config.port = static_cast<int>(port);
  serve::SocketServer transport(&core, socket_config);
  COURSENAV_RETURN_IF_ERROR(transport.Start());
  std::printf("serving on %s:%d\n", socket_config.bind_address.c_str(),
              transport.port());
  std::unique_ptr<serve::AdminServer> admin;
  if (admin_port >= 0) {
    serve::AdminConfig admin_config;
    admin_config.port = static_cast<int>(admin_port);
    admin = std::make_unique<serve::AdminServer>(&core, admin_config);
    COURSENAV_RETURN_IF_ERROR(admin->Start());
    std::printf("admin on %s:%d\n", admin_config.bind_address.c_str(),
                admin->port());
  }
  std::fflush(stdout);

  if (serve_seconds > 0) {
    Stopwatch uptime;
    while (uptime.ElapsedSeconds() < serve_seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } else {
    // Foreground service discipline: run until the parent closes stdin.
    std::string line;
    while (std::getline(std::cin, line)) {
    }
  }

  transport.Stop();
  Status drained = core.Drain(drain_seconds);
  if (!drained.ok()) {
    std::fprintf(stderr, "note: %s\n", drained.ToString().c_str());
  }
  // The admin plane outlives the drain so health checks can watch it.
  if (admin != nullptr) admin->Stop();
  if (!recorder_out.empty()) {
    COURSENAV_RETURN_IF_ERROR(
        WriteFileContents(recorder_out, core.recorder().DumpJsonLines()));
  }
  PrintServerStats(core.Stats());
  return Status::OK();
}

/// `coursenav admin`: one GET against a running server's admin plane. The
/// body prints verbatim; the exit code says whether the server answered
/// 200, so health checks can script it without parsing.
Status RunAdmin(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(std::string host,
                             flags.GetString("host", "127.0.0.1"));
  COURSENAV_ASSIGN_OR_RETURN(int64_t port, flags.GetInt("port", 0));
  if (port <= 0) {
    return Status::InvalidArgument("need --port=<admin-plane port>");
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string target,
                             flags.GetString("target", "/statusz"));
  COURSENAV_ASSIGN_OR_RETURN(
      serve::AdminServer::HttpResponse response,
      serve::AdminHttpGet(host, static_cast<int>(port), target));
  std::printf("%s", response.body.c_str());
  if (!response.ok()) {
    return Status::FailedPrecondition(StrFormat(
        "admin plane answered HTTP %d for %s", response.status_code,
        target.c_str()));
  }
  return Status::OK();
}

/// Shared tally for the replay workers.
struct ReplayTally {
  std::mutex mu;
  std::map<std::string, int64_t> outcomes;
  std::vector<double> latencies_ms;
  int64_t attempts = 0;
  int64_t transport_failures = 0;
  /// Per-value tallies of the envelopes' `cache` field (hit/miss/bypass/
  /// off); empty when the server predates the field or nothing executed.
  std::map<std::string, int64_t> cache;
  /// Per-tenant (met, missed) deadline tallies; rejected requests count
  /// toward neither (mirrors the server's SLO accounting).
  std::map<std::string, std::pair<int64_t, int64_t>> slo;
  /// Flattened span JSON lines collected from traced responses.
  std::vector<std::string> trace_lines;
};

double PercentileMs(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// `coursenav replay`: closed-loop replay of captured request envelopes
/// (one JSON document per line) against a live server or an embedded one.
Status RunReplay(const FlagSet& flags) {
  COURSENAV_ASSIGN_OR_RETURN(std::string requests_path,
                             flags.GetString("requests-file", ""));
  if (requests_path.empty()) {
    return Status::InvalidArgument("need --requests-file=<file> ('-' = stdin)");
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string text, ReadFileOrStdin(requests_path));
  std::vector<std::string> requests;
  for (std::string_view line : SplitAndTrim(text, '\n')) {
    if (!line.empty()) requests.emplace_back(line);
  }
  if (requests.empty()) {
    return Status::InvalidArgument("no request envelopes in '" +
                                   requests_path + "'");
  }
  COURSENAV_ASSIGN_OR_RETURN(int64_t repeat, flags.GetInt("repeat", 1));
  COURSENAV_ASSIGN_OR_RETURN(int64_t concurrency,
                             flags.GetInt("concurrency", 4));
  COURSENAV_ASSIGN_OR_RETURN(int64_t max_attempts,
                             flags.GetInt("max-attempts", 5));
  COURSENAV_ASSIGN_OR_RETURN(std::string server, flags.GetString("server", ""));
  if (repeat < 1 || concurrency < 1 || max_attempts < 1) {
    return Status::InvalidArgument(
        "--repeat, --concurrency, and --max-attempts must be >= 1");
  }
  COURSENAV_ASSIGN_OR_RETURN(std::string trace_out,
                             flags.GetString("trace-out", ""));
  COURSENAV_ASSIGN_OR_RETURN(double default_deadline_ms,
                             flags.GetDouble("default-deadline-ms", 2000.0));
  const bool want_traces = !trace_out.empty();

  // Per-line effective deadlines for the client-side SLO tally; with
  // --trace-out every envelope is additionally opted into tracing.
  std::vector<double> deadlines(requests.size(), default_deadline_ms);
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<JsonValue> parsed = JsonValue::Parse(requests[i]);
    if (!parsed.ok() || !parsed->is_object()) continue;  // server rejects it
    if (Result<JsonValue> deadline = parsed->Get("deadline_ms");
        deadline.ok() && deadline->is_number()) {
      if (Result<double> value = deadline->GetNumber();
          value.ok() && *value > 0) {
        deadlines[i] = *value;
      }
    }
    if (want_traces) {
      parsed->object()["trace"] = JsonValue(true);
      requests[i] = parsed->Dump();
    }
  }
  const int64_t total = static_cast<int64_t>(requests.size()) * repeat;

  // Socket mode parses host:port; embedded mode spins an in-process server
  // over the dataset flags.
  std::string host;
  int port = 0;
  CommonArgs common;
  std::unique_ptr<serve::ExplorationServer> embedded;
  if (!server.empty()) {
    size_t colon = server.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("--server must be host:port");
    }
    host = server.substr(0, colon);
    COURSENAV_ASSIGN_OR_RETURN(int64_t parsed_port,
                               ParseInt(server.substr(colon + 1)));
    port = static_cast<int>(parsed_port);
  } else {
    COURSENAV_RETURN_IF_ERROR(LoadDataset(flags, common));
    COURSENAV_ASSIGN_OR_RETURN(serve::ServerConfig config,
                               ServerConfigFromFlags(flags));
    embedded = std::make_unique<serve::ExplorationServer>(
        common.catalog, common.schedule, config);
    embedded->Start();
  }

  ReplayTally tally;
  std::atomic<int64_t> next{0};
  Stopwatch wall;
  std::vector<std::thread> sessions;
  sessions.reserve(static_cast<size_t>(concurrency));
  for (int64_t session = 0; session < concurrency; ++session) {
    sessions.emplace_back([&, session] {
      serve::ServeClient client;
      serve::TransportFn transport;
      if (embedded != nullptr) {
        transport = [&](std::string_view payload) {
          return embedded->HandleRequest(payload);
        };
      } else {
        transport =
            [&](std::string_view payload) -> Result<serve::ResponseEnvelope> {
          if (!client.connected()) {
            COURSENAV_ASSIGN_OR_RETURN(client,
                                       serve::ServeClient::Connect(host, port));
          }
          return client.CallEnvelope(payload);
        };
      }
      serve::RetryPolicy policy;
      policy.max_attempts = static_cast<int>(max_attempts);
      policy.jitter_seed = static_cast<uint64_t>(session) + 1;
      for (int64_t index = next.fetch_add(1); index < total;
           index = next.fetch_add(1)) {
        const std::string& payload =
            requests[static_cast<size_t>(index) % requests.size()];
        Stopwatch latency;
        Result<serve::RetryResult> result =
            serve::CallWithRetry(transport, payload, policy);
        double elapsed_ms = latency.ElapsedSeconds() * 1e3;
        std::lock_guard<std::mutex> lock(tally.mu);
        tally.latencies_ms.push_back(elapsed_ms);
        if (result.ok()) {
          const serve::ResponseEnvelope& response = result->response;
          tally.attempts += result->attempts;
          tally.outcomes[std::string(
              serve::ResponseOutcomeName(response.outcome))]++;
          if (!response.cache.empty()) tally.cache[response.cache]++;
          if (response.outcome != serve::ResponseOutcome::kRejected) {
            const bool met =
                (response.outcome == serve::ResponseOutcome::kOk ||
                 response.outcome == serve::ResponseOutcome::kDegraded) &&
                response.queue_wait_ms + response.service_ms <=
                    deadlines[static_cast<size_t>(index) % requests.size()];
            auto& [met_count, missed_count] = tally.slo[response.tenant];
            (met ? met_count : missed_count) += 1;
          }
          if (want_traces && response.trace.is_array()) {
            for (const JsonValue& span : response.trace.array()) {
              JsonValue tagged = span;
              if (tagged.is_object()) {
                tagged.object()["trace_id"] = JsonValue(response.trace_id);
              }
              tally.trace_lines.push_back(tagged.Dump());
            }
          }
        } else {
          ++tally.transport_failures;
          tally.outcomes["transport-error"]++;
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  const double wall_seconds = wall.ElapsedSeconds();

  std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
  std::printf("replayed %lld requests in %.2fs (%.1f req/s, %lld sessions)\n",
              static_cast<long long>(total), wall_seconds,
              static_cast<double>(total) / std::max(wall_seconds, 1e-9),
              static_cast<long long>(concurrency));
  std::printf("latency p50 %.2f ms, p99 %.2f ms; attempts %lld, "
              "transport errors %lld\n",
              PercentileMs(tally.latencies_ms, 0.50),
              PercentileMs(tally.latencies_ms, 0.99),
              static_cast<long long>(tally.attempts),
              static_cast<long long>(tally.transport_failures));
  for (const auto& [outcome, count] : tally.outcomes) {
    std::printf("  %-16s %lld\n", outcome.c_str(),
                static_cast<long long>(count));
  }
  if (!tally.cache.empty()) {
    std::printf("cache:");
    for (const auto& [kind, count] : tally.cache) {
      std::printf(" %s=%lld", kind.c_str(), static_cast<long long>(count));
    }
    std::printf("\n");
  }
  if (!tally.slo.empty()) {
    std::printf("per-tenant SLO (deadline attainment):\n");
    for (const auto& [tenant, counters] : tally.slo) {
      const auto& [met, missed] = counters;
      const int64_t counted = met + missed;
      std::printf("  %-16s %5.1f%% (%lld/%lld within deadline)\n",
                  tenant.c_str(),
                  counted > 0 ? 100.0 * static_cast<double>(met) /
                                    static_cast<double>(counted)
                              : 100.0,
                  static_cast<long long>(met),
                  static_cast<long long>(counted));
    }
  }
  if (want_traces) {
    std::string lines;
    for (const std::string& line : tally.trace_lines) {
      lines += line;
      lines += '\n';
    }
    COURSENAV_RETURN_IF_ERROR(WriteFileContents(trace_out, lines));
    std::printf("wrote %zu spans to %s\n", tally.trace_lines.size(),
                trace_out.c_str());
  }
  if (embedded != nullptr) {
    Status drained = embedded->Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "note: %s\n", drained.ToString().c_str());
    }
    PrintServerStats(embedded->Stats());
  }
  return Status::OK();
}

/// Writes --trace-out / --metrics-out artifacts after the command ran;
/// runs even when the command failed so a budget blow-up still leaves its
/// trace behind.
Status WriteObservabilityArtifacts(const obs::Tracer& tracer,
                                   const std::string& trace_out,
                                   const std::string& metrics_out) {
  if (!trace_out.empty()) {
    COURSENAV_RETURN_IF_ERROR(
        WriteFileContents(trace_out, obs::TraceToJsonLines(tracer)));
    if (tracer.dropped() > 0) {
      std::fprintf(stderr, "note: trace buffer full, %zu spans dropped\n",
                   tracer.dropped());
    }
  }
  if (!metrics_out.empty()) {
    COURSENAV_RETURN_IF_ERROR(WriteFileContents(
        metrics_out, obs::RenderPrometheus(obs::GlobalMetrics())));
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::string command = argv[1];
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);

  Result<std::string> trace_out = flags.GetString("trace-out", "");
  Result<std::string> metrics_out = flags.GetString("metrics-out", "");
  if (!trace_out.ok() || !metrics_out.ok()) {
    const Status& bad =
        trace_out.ok() ? metrics_out.status() : trace_out.status();
    std::fprintf(stderr, "error: %s\n", bad.ToString().c_str());
    return 1;
  }
  obs::Tracer tracer;
  std::optional<obs::ScopedTracer> install_tracer;
  // `replay` owns --trace-out itself (it collects the servers' per-request
  // span trees, not this process's spans).
  const bool replay_owns_trace = command == "replay";
  if (!trace_out->empty() && !replay_owns_trace) {
    install_tracer.emplace(&tracer);
  }

  Status status;
  if (command == "explore") {
    status = RunExplore(flags);
  } else if (command == "goal") {
    status = RunGoal(flags);
  } else if (command == "topk") {
    status = RunTopK(flags);
  } else if (command == "request") {
    status = RunRequest(flags);
  } else if (command == "count") {
    status = RunCount(flags);
  } else if (command == "options") {
    status = RunOptions(flags);
  } else if (command == "audit") {
    status = RunAudit(flags);
  } else if (command == "validate") {
    status = RunValidate(flags);
  } else if (command == "serve") {
    status = RunServe(flags);
  } else if (command == "replay") {
    status = RunReplay(flags);
  } else if (command == "admin") {
    status = RunAdmin(flags);
  } else if (command == "help" || command == "--help") {
    std::printf("%s", kUsage);
    return 0;
  } else {
    std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(),
                 kUsage);
    return 2;
  }
  Status artifacts = WriteObservabilityArtifacts(
      tracer, replay_owns_trace ? std::string() : *trace_out, *metrics_out);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "error: %s\n", artifacts.ToString().c_str());
    if (status.ok()) return 1;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace coursenav

int main(int argc, char** argv) { return coursenav::Main(argc, argv); }
