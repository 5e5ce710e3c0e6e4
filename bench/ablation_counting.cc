// Ablation bench: tree materialization (the paper's approach) vs.
// term-layered counting (our extension) for the same path populations.
// Quantifies why the paper's Table 2 ran out of memory: the expansion tree
// revisits each distinct enrollment status exponentially often, while the
// status DAG stays comparatively small.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/counting.h"
#include "core/deadline_generator.h"
#include "data/brandeis_cs.h"

namespace coursenav {
namespace {

void Run(const bench::BenchArgs& args) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();

  std::printf("Ablation: tree materialization vs. term-layered counting\n"
              "(deadline-driven, fresh student, m = 3)\n\n");

  bench::TextTable table({"semesters", "paths", "tree nodes", "tree sec",
                          "DAG statuses", "DAG sec", "tree/DAG size"});

  for (int span : {3, 4, 5}) {
    if (span == 5 && !args.full) {
      // The 5-semester tree exceeds the default memory budget; shown with
      // --full only.
      continue;
    }
    EnrollmentStatus start{data::StartTermForSpan(span),
                           dataset.catalog.NewCourseSet()};
    ExplorationOptions options;
    options.limits.max_nodes = args.full ? 40'000'000 : 4'000'000;

    auto tree = GenerateDeadlineDrivenPaths(dataset.catalog, dataset.schedule,
                                            start, end, options);
    ExplorationOptions count_options;
    count_options.limits.max_seconds = 120.0;
    auto dag = CountDeadlineDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, count_options);
    if (!tree.ok() || !dag.ok()) continue;

    std::string ratio = "-";
    if (tree->termination.ok() && dag->distinct_statuses > 0) {
      ratio = StrFormat("%.1fx", static_cast<double>(
                                     tree->stats.nodes_created) /
                                     static_cast<double>(
                                         dag->distinct_statuses));
    }
    std::string paths =
        tree->termination.ok()
            ? bench::WithCommas(
                  static_cast<uint64_t>(tree->stats.terminal_paths))
            : bench::WithCommas(dag->total_paths) + " (DAG)";
    table.AddRow({std::to_string(span), paths,
                  bench::WithCommas(
                      static_cast<uint64_t>(tree->stats.nodes_created)),
                  tree->termination.ok()
                      ? bench::Seconds(tree->stats.runtime_seconds)
                      : "budget",
                  bench::WithCommas(
                      static_cast<uint64_t>(dag->distinct_statuses)),
                  bench::Seconds(dag->runtime_seconds), ratio});
  }
  table.Print();
  std::printf(
      "\nReading: the DAG stays one to two orders of magnitude smaller than\n"
      "the tree and keeps shrinking relatively as the period grows — the\n"
      "compression that makes the paper's impossible-to-materialize cells\n"
      "countable.\n");
}

}  // namespace
}  // namespace coursenav

int main(int argc, char** argv) {
  coursenav::bench::BenchArgs args =
      coursenav::bench::BenchArgs::Parse(argc, argv);
  coursenav::Run(args);
  return 0;
}
