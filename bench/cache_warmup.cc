// Cache warm-up benchmark: a fleet of identical interactive asks against
// the process-wide epoch-keyed request cache (src/cache/). A cold pass
// fills the cache with one run per distinct request (the paper's Brandeis
// catalog, deadline- and goal-driven mixes); a warm pass then replays the
// fleet and measures what reuse buys: per-request p50/p99, hit rate, the
// cold/warm fleet speedup, and the identity verdict at 1 and 4 threads:
// every warm answer is the stored cold object, and that object equals a
// direct plan::Execute run of the request. Writes BENCH_cache.json
// (override with --json-out=).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cache/request_cache.h"
#include "core/ranking.h"
#include "data/brandeis_cs.h"
#include "expr/parser.h"
#include "graph/learning_graph.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "requirements/expr_goal.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

struct FleetRequest {
  std::string name;
  ExplorationRequest request;
};

/// The distinct ask set: cheap deadline horizons, core-conjunction goal
/// requests, and ranked top-10 asks (the cache's best case — expensive
/// best-first searches whose answers are just k paths), all ending at the
/// evaluation window's Fall 2015.
std::vector<FleetRequest> BuildFleet(const data::BrandeisDataset& dataset,
                                     bool full, int num_threads) {
  std::string core_spec;
  for (const std::string& code : dataset.core_codes) {
    if (!core_spec.empty()) core_spec += " and ";
    core_spec += code;
  }

  auto parsed = expr::ParseBoolExpr(core_spec);
  if (!parsed.ok()) std::abort();
  auto goal = ExprGoal::Create(*parsed, dataset.catalog);
  if (!goal.ok()) std::abort();

  auto ranking = std::make_shared<const TimeRanking>();

  std::vector<FleetRequest> fleet;
  auto add = [&](TaskType type, int span) {
    FleetRequest entry;
    entry.name = std::string(TaskTypeName(type)) + "-" +
                 std::to_string(span) + "sem";
    entry.request.start = {data::StartTermForSpan(span),
                           dataset.catalog.NewCourseSet()};
    entry.request.end_term = data::EvaluationEndTerm();
    entry.request.type = type;
    if (type != TaskType::kDeadlineDriven) {
      entry.request.goal = *goal;
      entry.request.goal_spec = core_spec;
    }
    if (type == TaskType::kRanked) {
      entry.request.ranking = ranking;
      entry.request.ranking_spec = "time";
      entry.request.top_k = 10;
    }
    entry.request.options.num_threads = num_threads;
    fleet.push_back(std::move(entry));
  };
  // Interactive-scale asks only: the widest deadline/goal spans
  // materialize graphs past the result tier's byte budget and belong to
  // the degradation ladder, not the cache.
  for (int span : {2, 3}) add(TaskType::kDeadlineDriven, span);
  for (int span : {3, 4}) add(TaskType::kGoalDriven, span);
  for (int span : {4, 5}) add(TaskType::kRanked, span);
  if (full) add(TaskType::kRanked, 6);
  return fleet;
}

bool SameGraph(const LearningGraph& a, const LearningGraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges() ||
      a.root() != b.root()) {
    return false;
  }
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    const LearningNode& na = a.node(id);
    const LearningNode& nb = b.node(id);
    if (na.term != nb.term || na.parent != nb.parent ||
        na.completed != nb.completed || na.edge_cost != nb.edge_cost ||
        na.path_cost != nb.path_cost ||
        na.out_edges != nb.out_edges || na.is_goal != nb.is_goal) {
      return false;
    }
  }
  return true;
}

bool SameResponse(const ExplorationResponse& a, const ExplorationResponse& b) {
  if (a.generation.has_value() != b.generation.has_value()) return false;
  if (a.generation.has_value() &&
      !SameGraph(a.generation->graph, b.generation->graph)) {
    return false;
  }
  if (a.ranked.has_value() != b.ranked.has_value()) return false;
  if (a.ranked.has_value() && a.ranked->paths != b.ranked->paths) return false;
  return true;
}

double PercentileMs(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

void Run(const bench::BenchArgs& args) {
  bench::BenchReport report("cache_warmup", args);
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();

  const int warm_iterations = args.full ? 16 : 8;
  std::vector<FleetRequest> fleet =
      BuildFleet(dataset, args.full, /*num_threads=*/1);

  std::printf(
      "Cache warm-up: %zu distinct Brandeis requests, cold fill then a\n"
      "%d-iteration warm fleet replay through a fresh RequestCache.\n\n",
      fleet.size(), warm_iterations);

  cache::RequestCache request_cache;

  // Cold pass: one run per distinct request, all misses.
  std::vector<std::shared_ptr<const ExplorationResponse>> cold_responses;
  std::vector<double> cold_ms;
  double cold_total_ms = 0.0;
  for (const FleetRequest& entry : fleet) {
    cache::CacheOutcome outcome = cache::CacheOutcome::kDisabled;
    Stopwatch timer;
    auto response = request_cache.Execute(dataset.catalog, dataset.schedule,
                                          entry.request, &outcome);
    const double ms = timer.ElapsedSeconds() * 1e3;
    if (!response.ok() || outcome != cache::CacheOutcome::kMiss) {
      std::fprintf(stderr, "cold %s: unexpected %s / %s\n",
                   entry.name.c_str(),
                   std::string(cache::CacheOutcomeName(outcome)).c_str(),
                   response.ok() ? "ok" : response.status().ToString().c_str());
      std::abort();
    }
    cold_responses.push_back(std::move(*response));
    cold_ms.push_back(ms);
    cold_total_ms += ms;
  }

  // Warm pass: the whole fleet again, warm_iterations times over.
  std::vector<std::vector<double>> warm_ms(fleet.size());
  double warm_total_ms = 0.0;
  int64_t warm_hits = 0;
  int64_t warm_requests = 0;
  bool identical_1_thread = true;
  for (int iteration = 0; iteration < warm_iterations; ++iteration) {
    for (size_t i = 0; i < fleet.size(); ++i) {
      cache::CacheOutcome outcome = cache::CacheOutcome::kDisabled;
      Stopwatch timer;
      auto response = request_cache.Execute(dataset.catalog, dataset.schedule,
                                            fleet[i].request, &outcome);
      const double ms = timer.ElapsedSeconds() * 1e3;
      warm_ms[i].push_back(ms);
      warm_total_ms += ms;
      ++warm_requests;
      if (response.ok() && outcome == cache::CacheOutcome::kHit) ++warm_hits;
      if (!response.ok() || *response != cold_responses[i]) {
        identical_1_thread = false;
      }
    }
  }

  // At 4 threads: the result key is thread-free, so a 4-thread ask must
  // be served from the same canonical entry. The hits are the cold
  // objects themselves, so the verdicts also compare each cold answer
  // with a direct (uncached) run at that thread count.
  bool identical_4_threads = true;
  std::vector<FleetRequest> threaded =
      BuildFleet(dataset, args.full, /*num_threads=*/4);
  for (size_t i = 0; i < threaded.size(); ++i) {
    cache::CacheOutcome outcome = cache::CacheOutcome::kDisabled;
    auto response = request_cache.Execute(dataset.catalog, dataset.schedule,
                                          threaded[i].request, &outcome);
    if (!response.ok() || outcome != cache::CacheOutcome::kHit ||
        *response != cold_responses[i]) {
      identical_4_threads = false;
    }
    auto serial = plan::Execute(dataset.catalog, dataset.schedule,
                                fleet[i].request);
    auto parallel = plan::Execute(dataset.catalog, dataset.schedule,
                                  threaded[i].request);
    if (!serial.ok() || !SameResponse(*cold_responses[i], *serial)) {
      identical_1_thread = false;
    }
    if (!parallel.ok() || !SameResponse(*cold_responses[i], *parallel)) {
      identical_4_threads = false;
    }
  }

  bench::TextTable table({"request", "cold ms", "warm p50 ms", "warm p99 ms",
                          "speedup"});
  for (size_t i = 0; i < fleet.size(); ++i) {
    std::sort(warm_ms[i].begin(), warm_ms[i].end());
    const double p50 = PercentileMs(warm_ms[i], 0.50);
    const double p99 = PercentileMs(warm_ms[i], 0.99);
    const double speedup = p50 > 0.0 ? cold_ms[i] / p50 : 0.0;
    table.AddRow({fleet[i].name, StrFormat("%.3f", cold_ms[i]),
                  StrFormat("%.3f", p50), StrFormat("%.3f", p99),
                  StrFormat("%.1fx", speedup)});

    JsonValue::Object row;
    row["request"] = fleet[i].name;
    row["cold_ms"] = cold_ms[i];
    row["warm_p50_ms"] = p50;
    row["warm_p99_ms"] = p99;
    row["speedup"] = speedup;
    report.AddRow(std::move(row));
  }
  table.Print();

  const double cold_per_request =
      cold_total_ms / static_cast<double>(fleet.size());
  const double warm_per_request =
      warm_total_ms / static_cast<double>(warm_requests);
  const double fleet_speedup =
      warm_per_request > 0.0 ? cold_per_request / warm_per_request : 0.0;
  const double hit_rate =
      static_cast<double>(warm_hits) / static_cast<double>(warm_requests);

  cache::CacheStats stats = request_cache.Stats();
  std::printf(
      "\nfleet: cold %.3f ms/request, warm %.3f ms/request -> %.1fx\n"
      "warm hit rate: %.1f%% (%lld/%lld)\n"
      "hits are the cold answer, equal to a direct run: %s at 1 thread, "
      "%s at 4 threads\n"
      "tiers: %zu results (%zu bytes), %lld evictions\n",
      cold_per_request, warm_per_request, fleet_speedup, hit_rate * 100.0,
      static_cast<long long>(warm_hits),
      static_cast<long long>(warm_requests),
      identical_1_thread ? "yes" : "NO", identical_4_threads ? "yes" : "NO",
      stats.result_entries, stats.result_bytes,
      static_cast<long long>(stats.evictions));

  JsonValue::Object summary;
  summary["request"] = "fleet";
  summary["cold_ms_per_request"] = cold_per_request;
  summary["warm_ms_per_request"] = warm_per_request;
  summary["speedup"] = fleet_speedup;
  summary["warm_hits"] = warm_hits;
  summary["warm_requests"] = warm_requests;
  summary["hit_rate"] = hit_rate;
  summary["byte_identical_1_thread"] = identical_1_thread;
  summary["byte_identical_4_threads"] = identical_4_threads;
  summary["result_hits"] = stats.result_hits;
  summary["result_misses"] = stats.result_misses;
  summary["result_bytes"] = static_cast<int64_t>(stats.result_bytes);
  report.AddRow(std::move(summary));

  const std::string out =
      args.json_out.empty() ? "BENCH_cache.json" : args.json_out;
  report.WriteTo(out);
}

}  // namespace
}  // namespace coursenav

int main(int argc, char** argv) {
  coursenav::Run(coursenav::bench::BenchArgs::Parse(argc, argv));
  return 0;
}
