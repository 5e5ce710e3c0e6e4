// The paper batch: Table 2 and Figure 4 cells called directly through the
// planner pipeline and the counting functions, with no server and no cache.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/counting.h"
#include "data/brandeis_cs.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "span_tree.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

using coursenav::ExplorationRequest;
using coursenav::ExplorationResponse;
using coursenav::StrFormat;
using coursenav::TaskType;

namespace {

enum class CellKind { kMaterialize, kCountDeadline, kCountGoal };

struct Cell {
  std::string name;
  CellKind kind = CellKind::kMaterialize;
  ExplorationRequest request;
};

/// What one call of one cell produced.
struct CellRun {
  double seconds = 0.0;
  double rss_delta_mb = 0.0;  // VmHWM during the call minus RSS before it
  double peak_mb = 0.0;
  int64_t nodes = 0;
  int64_t terminal_paths = 0;
  int64_t pruned = 0;
  size_t memory_usage = 0;  // LearningGraph::MemoryUsage()
  int64_t paths_returned = 0;
  uint64_t count_total = 0;
  int64_t statuses = 0;
  /// Structure of the materialized answer, independent of how the graph
  /// was sharded: a hash over a depth-first walk, or over the ranked paths.
  uint64_t digest = 0;
  std::string error;
};

struct Batch {
  coursenav::data::BrandeisDataset dataset;
  std::vector<Cell> cells;
};

std::unique_ptr<Batch> SetUpBatch() {
  auto batch = std::make_unique<Batch>();
  batch->dataset = coursenav::data::BuildBrandeisDataset();
  const auto& dataset = batch->dataset;
  auto cell = [&](std::string name, CellKind kind, TaskType type, int span,
                  int threads, int top_k) {
    Cell c;
    c.name = std::move(name);
    c.kind = kind;
    ExplorationRequest& r = c.request;
    r.start = coursenav::EnrollmentStatus{
        coursenav::data::StartTermForSpan(span), dataset.catalog.NewCourseSet()};
    r.end_term = coursenav::data::EvaluationEndTerm();
    r.type = type;
    if (type != TaskType::kDeadlineDriven) r.goal = dataset.cs_major;
    if (type == TaskType::kRanked) {
      r.ranking = std::make_shared<const coursenav::TimeRanking>();
      r.top_k = top_k;
    }
    r.options.num_threads = threads;
    // Table 2's materialization budget.
    r.options.limits.max_nodes = 3'000'000;
    r.options.limits.max_memory_bytes = size_t{1} << 30;
    batch->cells.push_back(std::move(c));
  };
  cell("deadline-4sem", CellKind::kMaterialize, TaskType::kDeadlineDriven, 4, 0, 0);
  cell("goal-5sem", CellKind::kMaterialize, TaskType::kGoalDriven, 5, 0, 0);
  cell("deadline-4sem-t4", CellKind::kMaterialize, TaskType::kDeadlineDriven, 4, 4, 0);
  cell("goal-5sem-t4", CellKind::kMaterialize, TaskType::kGoalDriven, 5, 4, 0);
  cell("ranked-5sem-k10", CellKind::kMaterialize, TaskType::kRanked, 5, 0, 10);
  cell("ranked-6sem-k100", CellKind::kMaterialize, TaskType::kRanked, 6, 0, 100);
  cell("count-deadline-5sem", CellKind::kCountDeadline, TaskType::kDeadlineDriven, 5, 0, 0);
  cell("count-goal-5sem", CellKind::kCountGoal, TaskType::kGoalDriven, 5, 0, 0);
  return batch;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2))) *
         0xff51afd7ed558ccdULL;
}

uint64_t GraphDigest(const coursenav::LearningGraph& graph) {
  uint64_t h = 0;
  if (graph.root() == coursenav::kInvalidNodeId) return h;
  std::vector<coursenav::NodeId> stack{graph.root()};
  while (!stack.empty()) {
    const coursenav::LearningNode& node = graph.node(stack.back());
    stack.pop_back();
    h = Mix(h, static_cast<uint64_t>(node.term.index()));
    h = Mix(h, node.completed.Hash());
    h = Mix(h, node.is_goal ? 1 : 2);
    h = Mix(h, node.out_edges.size());
    for (auto it = node.out_edges.rbegin(); it != node.out_edges.rend(); ++it) {
      const coursenav::LearningEdge& edge = graph.edge(*it);
      h = Mix(h, edge.selection.Hash());
      stack.push_back(edge.to);
    }
  }
  return h;
}

uint64_t PathsDigest(const std::vector<coursenav::LearningPath>& paths) {
  uint64_t h = 0;
  for (const coursenav::LearningPath& path : paths) {
    h = Mix(h, static_cast<uint64_t>(path.cost() * 1024.0));
    for (const coursenav::PathStep& step : path.steps()) {
      h = Mix(h, static_cast<uint64_t>(step.term.index()));
      h = Mix(h, step.selection.Hash());
    }
  }
  return h;
}

CellRun RunCell(const Batch& batch, const Cell& cell) {
  const auto& dataset = batch.dataset;
  CellRun run;
  TrimHeap();
  const double rss_before = CurrentRssMb();
  ResetPeakRss();
  const double start = NowSeconds();
  if (cell.kind == CellKind::kMaterialize) {
    auto response =
        coursenav::plan::Execute(dataset.catalog, dataset.schedule, cell.request);
    run.seconds = NowSeconds() - start;
    run.peak_mb = PeakRssMb();
    if (!response.ok()) {
      run.error = response.status().ToString();
    } else if (response->generation.has_value()) {
      const auto& generation = *response->generation;
      if (!generation.termination.ok()) run.error = generation.termination.ToString();
      run.nodes = generation.stats.nodes_created;
      run.terminal_paths = generation.stats.terminal_paths;
      run.pruned = generation.stats.TotalPruned();
      run.memory_usage = generation.graph.MemoryUsage();
      run.digest = GraphDigest(generation.graph);
    } else {
      const auto& ranked = *response->ranked;
      if (!ranked.termination.ok()) run.error = ranked.termination.ToString();
      run.nodes = ranked.stats.nodes_created;
      run.paths_returned = static_cast<int64_t>(ranked.paths.size());
      run.digest = PathsDigest(ranked.paths);
      for (size_t i = 0; i < ranked.paths.size(); ++i) {
        coursenav::Status valid =
            ranked.paths[i].Validate(dataset.catalog, dataset.schedule);
        if (!valid.ok()) run.error = valid.ToString();
        if (i > 0 && ranked.paths[i].cost() < ranked.paths[i - 1].cost()) {
          run.error = "ranked paths out of cost order";
        }
      }
    }
  } else {
    const ExplorationRequest& r = cell.request;
    auto counted =
        cell.kind == CellKind::kCountGoal
            ? coursenav::CountGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                              r.start, r.end_term, *r.goal,
                                              r.options, r.config)
            : coursenav::CountDeadlineDrivenPaths(
                  dataset.catalog, dataset.schedule, r.start, r.end_term,
                  r.options);
    run.seconds = NowSeconds() - start;
    run.peak_mb = PeakRssMb();
    if (!counted.ok()) {
      run.error = counted.status().ToString();
    } else {
      run.count_total = counted->total_paths;
      run.statuses = counted->distinct_statuses;
    }
  }
  run.rss_delta_mb = run.peak_mb - rss_before;
  return run;
}

/// The correctness gate of one pass, against the paper's pinned numbers
/// and the first pass.
void CheckPass(const std::map<std::string, CellRun>& pass,
               const std::map<std::string, CellRun>& first, Report* report,
               int64_t* wrong) {
  auto expect = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++*wrong;
    report->Wrong(what);
  };
  for (const auto& [name, run] : pass) {
    expect(run.error.empty(), name + ": " + run.error);
    const CellRun& reference = first.at(name);
    expect(run.digest == reference.digest && run.count_total == reference.count_total,
           name + ": answer differs from the first pass");
  }
  const CellRun& d4 = pass.at("deadline-4sem");
  expect(d4.nodes == 187'876 && d4.terminal_paths == 178'251,
         StrFormat("deadline-4sem: %lld nodes, %lld paths; pinned 187,876 "
                   "and 178,251",
                   static_cast<long long>(d4.nodes),
                   static_cast<long long>(d4.terminal_paths)));
  const CellRun& g5 = pass.at("goal-5sem");
  expect(g5.nodes == 1'248'263 && g5.terminal_paths == 1'079'711,
         StrFormat("goal-5sem: %lld nodes, %lld paths; pinned 1,248,263 and "
                   "1,079,711",
                   static_cast<long long>(g5.nodes),
                   static_cast<long long>(g5.terminal_paths)));
  expect(pass.at("deadline-4sem-t4").digest == d4.digest &&
             pass.at("deadline-4sem-t4").nodes == d4.nodes,
         "deadline-4sem: 4-thread graph differs from the serial one");
  expect(pass.at("goal-5sem-t4").digest == g5.digest &&
             pass.at("goal-5sem-t4").nodes == g5.nodes,
         "goal-5sem: 4-thread graph differs from the serial one");
  const CellRun& cg5 = pass.at("count-goal-5sem");
  expect(cg5.count_total == static_cast<uint64_t>(g5.terminal_paths) &&
             cg5.count_total == 1'079'711,
         StrFormat("count-goal-5sem counts %llu paths; the materialized cell "
                   "has %lld",
                   static_cast<unsigned long long>(cg5.count_total),
                   static_cast<long long>(g5.terminal_paths)));
  expect(pass.at("ranked-5sem-k10").paths_returned == 10,
         "ranked-5sem-k10 did not return 10 paths");
  expect(pass.at("ranked-6sem-k100").paths_returned == 100,
         "ranked-6sem-k100 did not return 100 paths");
}

double MedianOf(const std::vector<std::map<std::string, CellRun>>& passes,
                const std::string& cell,
                const std::function<double(const CellRun&)>& field) {
  std::vector<double> values;
  for (const auto& pass : passes) values.push_back(field(pass.at(cell)));
  return Median(values);
}

}  // namespace

Report RunPaperBatch(const RunOptions& options) {
  Report report;
  // Set-up builds the dataset and the cells' requests.
  std::vector<double> setups;
  std::unique_ptr<Batch> batch;
  for (int rep = 0; rep < kSetUps; ++rep) {
    batch.reset();
    const double start = NowSeconds();
    batch = SetUpBatch();
    setups.push_back(NowSeconds() - start);
  }
  // One untimed call of the smallest cell pays the process's first-touch
  // costs (the first call of a cell runs markedly slower than later ones).
  (void)coursenav::plan::Execute(batch->dataset.catalog,
                                 batch->dataset.schedule,
                                 batch->cells.front().request);

  // Untraced passes for the run's length (half of it in the traced run),
  // never fewer than two.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<std::map<std::string, CellRun>> passes;
  std::vector<double> pass_seconds;
  std::vector<double> pass_peak_mb;
  int64_t wrong = 0;
  const double started = NowSeconds();
  while (passes.size() < 2 || NowSeconds() - started < budget) {
    std::map<std::string, CellRun> pass;
    double seconds = 0.0;
    double peak_mb = 0.0;
    for (const Cell& cell : batch->cells) {
      CellRun run = RunCell(*batch, cell);
      seconds += run.seconds;
      peak_mb = std::max(peak_mb, run.peak_mb);
      pass[cell.name] = run;
    }
    pass_peak_mb.push_back(peak_mb);
    CheckPass(pass, passes.empty() ? pass : passes.front(), &report, &wrong);
    std::printf("pass %zu: %.4f s\n", passes.size(), seconds);
    pass_seconds.push_back(seconds);
    passes.push_back(std::move(pass));
  }
  report.attempted =
      static_cast<int64_t>(passes.size() * batch->cells.size());
  report.failed = wrong;

  std::vector<double> cell_ms;
  std::printf("%-22s %12s %12s %12s %14s\n", "cell", "median ms", "nodes",
              "rss MiB", "est MiB");
  for (const Cell& cell : batch->cells) {
    const double ms =
        MedianOf(passes, cell.name, [](const CellRun& r) { return r.seconds * 1e3; });
    cell_ms.push_back(ms);
    const CellRun& last = passes.back().at(cell.name);
    std::printf("%-22s %12.3f %12lld %12.1f %14.1f\n", cell.name.c_str(), ms,
                static_cast<long long>(last.nodes ? last.nodes : last.statuses),
                last.rss_delta_mb,
                static_cast<double>(last.memory_usage) / (1 << 20));
  }
  const double pass_s = Median(pass_seconds);
  report.E2e("setup_s", Median(setups), "s");
  // The typical cell: a geometric mean, since a median of eight cells of
  // very different sizes jumps between neighbours as their times jitter.
  double log_sum = 0.0;
  for (double ms : cell_ms) log_sum += std::log(ms);
  report.E2e("latency_p50_ms",
             std::exp(log_sum / static_cast<double>(cell_ms.size())), "ms");
  std::printf("latency_tail_ms %.4f (slowest cell)\n",
              *std::max_element(cell_ms.begin(), cell_ms.end()));
  report.E2e("max_rate_rps", static_cast<double>(batch->cells.size()) / pass_s,
             "1/s");
  report.E2e("peak_rss_mb", Median(pass_peak_mb), "MiB");

  auto median = [&](const std::string& cell,
                    const std::function<double(const CellRun&)>& field) {
    return MedianOf(passes, cell, field);
  };
  auto seconds = [](const CellRun& r) { return r.seconds; };
  double materialize_s = 0.0;
  double materialize_nodes = 0.0;
  for (const char* cell :
       {"deadline-4sem", "goal-5sem", "ranked-5sem-k10", "ranked-6sem-k100"}) {
    materialize_s += median(cell, seconds);
    materialize_nodes += static_cast<double>(passes.back().at(cell).nodes);
  }
  const CellRun& g5 = passes.back().at("goal-5sem");
  const CellRun& r10 = passes.back().at("ranked-5sem-k10");
  const CellRun& r100 = passes.back().at("ranked-6sem-k100");
  const CellRun& cd5 = passes.back().at("count-deadline-5sem");
  const CellRun& cg5 = passes.back().at("count-goal-5sem");
  report.Layer("batch.pass_s", pass_s, "s");
  report.Layer("core.ns_per_node", materialize_s * 1e9 / materialize_nodes, "ns");
  report.Layer("core.prune_ratio",
               static_cast<double>(g5.pruned) /
                   static_cast<double>(g5.pruned + g5.nodes),
               "ratio");
  report.Layer("core.ranked_nodes_per_path",
               static_cast<double>(r10.nodes + r100.nodes) /
                   static_cast<double>(r10.paths_returned + r100.paths_returned),
               "count");
  report.Layer("count.ns_per_status",
               (median("count-deadline-5sem", seconds) +
                median("count-goal-5sem", seconds)) *
                   1e9 / static_cast<double>(cd5.statuses + cg5.statuses),
               "ns");
  report.Layer("graph.bytes_per_node_rss",
               median("goal-5sem",
                      [](const CellRun& r) { return r.rss_delta_mb; }) *
                   (1 << 20) / static_cast<double>(g5.nodes),
               "B");
  report.Layer("graph.bytes_per_node_est",
               static_cast<double>(g5.memory_usage) / static_cast<double>(g5.nodes),
               "B");
  report.Layer("exec.speedup_4t",
               (median("deadline-4sem", seconds) + median("goal-5sem", seconds)) /
                   (median("deadline-4sem-t4", seconds) +
                    median("goal-5sem-t4", seconds)),
               "x");
  report.Layer("failed_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");

  if (options.trace) {
    // One more pass with a tracer installed: the benchmark's own spans
    // around the pass and each cell, the program's spans beneath them.
    coursenav::obs::Tracer tracer(size_t{1} << 22);
    double traced_s = 0.0;
    {
      coursenav::obs::ScopedTracer install(&tracer);
      coursenav::obs::ScopedSpan pass_span("bench/pass");
      for (const Cell& cell : batch->cells) {
        coursenav::obs::ScopedSpan cell_span("bench/cell");
        cell_span.AddString("cell", cell.name);
        traced_s += RunCell(*batch, cell).seconds;
      }
    }
    SpanTree tree;
    FoldSpans(tracer.Spans(), &tree);
    report.Layer("trace.overhead_ms", (traced_s - pass_s) * 1e3, "ms");
    if (tracer.dropped() > 0) {
      report.Wrong(StrFormat("tracer dropped %zu spans", tracer.dropped()));
    }
    ReportSpanTree(tree, 1, &report);
  }
  return report;
}

}  // namespace perfbench
