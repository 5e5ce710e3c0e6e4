// Reproduces the paper's Table 2: deadline-driven vs. goal-driven learning
// path generation across academic periods of 4-7 semesters (deadline fixed
// at Fall 2015, fresh student, m = 3).
//
// Paper numbers: deadline-driven 740,677 paths / 17.9 s (4 sem) and
// 971,128 / 20.1 s (5 sem), N/A at >= 6 (graph exceeds memory);
// goal-driven 1,979 (4), 3,791 (5), 41,556,657 (6), 50,960,005 (7).
//
// We reproduce the shape: goal-driven output is orders of magnitude
// smaller than deadline-driven for the same period; materialization hits
// the memory budget for long periods (the "N/A" cells); and the goal-path
// population explodes into the tens/hundreds of millions for 6+ semesters.
// Cells the materializer cannot hold are *counted* instead with the
// term-layered counter (an extension the paper did not have), under a time
// budget. `--full` raises every budget.

#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "bench/bench_util.h"
#include "core/counting.h"
#include "data/brandeis_cs.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "util/check.h"

namespace coursenav {
namespace {

/// Runs one materializing request through the planner pipeline and unwraps
/// the generation payload (deadline- and goal-driven requests always
/// populate it).
Result<GenerationResult> Materialize(const data::BrandeisDataset& dataset,
                                     const ExplorationRequest& request) {
  COURSENAV_ASSIGN_OR_RETURN(
      ExplorationResponse response,
      plan::Execute(dataset.catalog, dataset.schedule, request));
  CN_CHECK(response.generation.has_value());
  return std::move(*response.generation);
}

std::string MaterializedCell(const Result<GenerationResult>& result) {
  if (!result.ok()) return "error";
  if (!result->termination.ok()) return "N/A (memory budget)";
  return bench::WithCommas(
      static_cast<uint64_t>(result->stats.terminal_paths));
}

std::string MaterializedTime(const Result<GenerationResult>& result) {
  if (!result.ok() || !result->termination.ok()) return "-";
  return bench::Seconds(result->stats.runtime_seconds);
}

/// One count under its budget, timed from outside so a count that falls
/// on its budget still reports how long it ran.
struct TimedCount {
  Result<CountingResult> result = Status::Internal("not run");
  double seconds = 0.0;
};

template <typename CountFn>
TimedCount TimeCount(CountFn&& count) {
  const auto start = std::chrono::steady_clock::now();
  TimedCount timed;
  timed.result = count();
  timed.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return timed;
}

std::string CountCell(const TimedCount& count) {
  std::string cell = count.result.ok()
                         ? bench::WithCommas(count.result->total_paths)
                         : "> budget";
  return cell + " (" + bench::Seconds(count.seconds) + " s)";
}

void Run(const bench::BenchArgs& args) {
  std::optional<bench::StageProfiler> profiler;
  if (args.profile) profiler.emplace();

  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  bench::BenchReport report("table2_scalability", args);

  std::printf("Table 2: deadline-driven vs. goal-driven scalability\n");
  std::printf("(fresh student, m = 3, deadline %s, threads = %d; count\n"
              " columns are an extension for cells whose graph exceeds the\n"
              " memory budget, with each count's wall time)\n\n",
              end.ToString().c_str(), args.threads);

  bench::TextTable table({"semesters", "deadline: paths", "deadline: sec",
                          "deadline: count", "goal: paths", "goal: sec",
                          "goal: count"});

  for (int span : {4, 5, 6, 7}) {
    EnrollmentStatus start{data::StartTermForSpan(span),
                           dataset.catalog.NewCourseSet()};

    // One declarative request per Table 2 cell; the two modes differ only
    // in task type and goal. Materialization budget: the deliberate
    // analogue of the paper's "could not store the graph in memory".
    ExplorationRequest request;
    request.start = start;
    request.end_term = end;
    request.options.num_threads = args.threads;
    request.options.limits.max_nodes = args.full ? 20'000'000 : 3'000'000;
    request.options.limits.max_memory_bytes =
        args.full ? (8ull << 30) : (1ull << 30);

    request.type = TaskType::kDeadlineDriven;
    auto deadline = Materialize(dataset, request);
    request.type = TaskType::kGoalDriven;
    request.goal = dataset.cs_major;
    auto goal = Materialize(dataset, request);

    // Counting budgets grow with the span; the biggest configurations are
    // only attempted under --full (the paper's 6-semester goal run took
    // 1,845 s on their hardware; ours is bounded instead). Deadline counts
    // beyond 5 semesters are known-hopeless and get a short budget; the
    // 6-semester *goal* count is the paper's headline 41M cell and gets a
    // generous one.
    ExplorationOptions deadline_count_options;
    deadline_count_options.limits.max_seconds =
        args.full ? 900.0 : (span <= 5 ? 45.0 : 20.0);
    ExplorationOptions goal_count_options;
    goal_count_options.limits.max_seconds =
        args.full ? 900.0 : (span <= 5 ? 45.0 : span == 6 ? 240.0 : 60.0);
    TimedCount deadline_count = TimeCount([&] {
      return CountDeadlineDrivenPaths(dataset.catalog, dataset.schedule,
                                      start, end, deadline_count_options);
    });
    TimedCount goal_count = TimeCount([&] {
      return CountGoalDrivenPaths(dataset.catalog, dataset.schedule, start,
                                  end, *dataset.cs_major, goal_count_options);
    });

    table.AddRow({std::to_string(span), MaterializedCell(deadline),
                  MaterializedTime(deadline), CountCell(deadline_count),
                  MaterializedCell(goal), MaterializedTime(goal),
                  CountCell(goal_count)});

    auto report_row = [&](const char* mode,
                          const Result<GenerationResult>& result) {
      if (!result.ok()) return;
      JsonValue::Object row;
      row["semesters"] = span;
      row["mode"] = mode;
      row["threads"] = args.threads;
      row["runtime_seconds"] = result->stats.runtime_seconds;
      row["nodes"] = result->stats.nodes_created;
      row["terminal_paths"] = result->stats.terminal_paths;
      row["goal_paths"] = result->stats.goal_paths;
      row["complete"] = result->termination.ok();
      bench::AddGraphBytes(result->graph.num_nodes(),
                           result->graph.MemoryUsage(),
                           result->graph.AllocatedBytes(), &row);
      report.AddRow(std::move(row));
    };
    report_row("deadline", deadline);
    report_row("goal", goal);

    auto report_count = [&](const char* mode, const TimedCount& count) {
      JsonValue::Object row;
      row["semesters"] = span;
      row["mode"] = mode;
      row["runtime_seconds"] = count.seconds;
      row["complete"] = count.result.ok();
      if (count.result.ok()) {
        const CountingResult& counted = *count.result;
        row["terminal_paths"] = static_cast<int64_t>(counted.total_paths);
        row["goal_paths"] = static_cast<int64_t>(counted.goal_paths);
        row["distinct_statuses"] = counted.distinct_statuses;
      }
      report.AddRow(std::move(row));
    };
    report_count("deadline-count", deadline_count);
    report_count("goal-count", goal_count);
  }
  table.Print();
  report.WriteIfRequested(args);
  std::printf(
      "\nPaper shape check: goal-driven output is orders of magnitude\n"
      "smaller than deadline-driven per period; materialization hits the\n"
      "memory budget on long periods (paper's N/A cells); goal-path counts\n"
      "explode beyond visualizable sizes at 6+ semesters.\n");
  if (profiler.has_value()) profiler->Print();
}

}  // namespace
}  // namespace coursenav

int main(int argc, char** argv) {
  coursenav::bench::BenchArgs args =
      coursenav::bench::BenchArgs::Parse(argc, argv);
  coursenav::Run(args);
  return 0;
}
