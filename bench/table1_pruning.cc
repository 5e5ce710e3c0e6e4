// Reproduces the paper's Table 1: goal-driven learning path generation with
// and without pruning, plus the §5.2 pruning breakdown (share of paths cut
// by the time-based vs. course-availability strategy).
//
// Paper numbers (Java, PowerEdge R320, real Brandeis data):
//   4 semesters: 1,979 paths / 1.011 s with pruning,
//                525,583 paths / 7.43 s without;
//   5 semesters: 3,791 paths / 1.295 s with pruning,
//                760,677 paths / 74.03 s without;
//   82% of pruned paths cut by the time strategy, 18% by availability.
//
// The synthetic catalog reproduces the *shape* (pruning removes the
// overwhelming majority of paths and most of the runtime; time-based
// pruning dominates), not the absolute counts. `--full` raises the
// no-pruning node budget.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "core/goal_generator.h"
#include "data/brandeis_cs.h"

namespace coursenav {
namespace {

void Run(const bench::BenchArgs& args) {
  std::optional<bench::StageProfiler> profiler;
  if (args.profile) profiler.emplace();
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();

  std::printf("Table 1: goal-driven path generation with vs. without "
              "pruning\n");
  std::printf("(CS major = 7 core + 5 electives, m = 3, deadline %s)\n\n",
              end.ToString().c_str());

  bench::TextTable table({"semesters", "pruning: paths", "pruning: sec",
                          "no pruning: paths", "no pruning: sec",
                          "time-pruned %", "avail-pruned %"});

  GoalDrivenConfig with_pruning;
  GoalDrivenConfig no_pruning;
  no_pruning.enable_time_pruning = false;
  no_pruning.enable_availability_pruning = false;

  for (int span : {4, 5}) {
    EnrollmentStatus start{data::StartTermForSpan(span),
                           dataset.catalog.NewCourseSet()};

    ExplorationOptions options;
    options.limits.max_nodes = args.full ? 60'000'000 : 8'000'000;
    options.limits.max_memory_bytes = args.full ? (6ull << 30) : (2ull << 30);

    auto pruned = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options, with_pruning);
    auto unpruned = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                            start, end, *dataset.cs_major,
                                            options, no_pruning);
    if (!pruned.ok() || !unpruned.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   (!pruned.ok() ? pruned : unpruned)
                       .status()
                       .ToString()
                       .c_str());
      continue;
    }

    auto paths_cell = [](const GenerationResult& r) {
      std::string cell = bench::WithCommas(
          static_cast<uint64_t>(r.stats.terminal_paths));
      if (!r.termination.ok()) cell = "> " + cell + " (budget)";
      return cell;
    };
    double total_pruned =
        static_cast<double>(pruned->stats.TotalPruned());
    double time_share =
        total_pruned > 0
            ? 100.0 * static_cast<double>(pruned->stats.pruned_time) /
                  total_pruned
            : 0.0;

    table.AddRow({std::to_string(span), paths_cell(*pruned),
                  bench::Seconds(pruned->stats.runtime_seconds),
                  paths_cell(*unpruned),
                  bench::Seconds(unpruned->stats.runtime_seconds),
                  StrFormat("%.1f", time_share),
                  StrFormat("%.1f", 100.0 - time_share)});
  }
  table.Print();
  std::printf(
      "\nPaper shape check: with pruning, path counts and runtimes drop by\n"
      "orders of magnitude, and the time-based strategy accounts for the\n"
      "large majority of pruned work (paper: 82%% / 18%%).\n");
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
