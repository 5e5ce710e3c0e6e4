// CourseNavigator's benchmark: one command per workload, printing every
// metric by name with its unit and checking every answer.
//
//   perfbench --workload <advising_hot|advising_cold|paper_batch>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Layers are
// measured from outside, by timing calls into each module's public
// functions and reading what the program already returns.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "measure.h"
#include "util/simd/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void ReportSpanTree(const SpanTree& tree, int64_t roots, Report* report) {
  report->Layer("trace.spans", static_cast<double>(tree.spans), "count");
  report->Layer("trace.violations", static_cast<double>(tree.violations),
                "count");
  for (const std::string& note : tree.violation_notes) {
    report->Wrong("span tree: " + note);
  }
  if (roots == 0) return;
  // Self time per traced root of every span name seen ("self_ms." and the
  // name with '/' as '.'); run.py keeps the ones BENCHMARK.json lists.
  for (const auto& [span, totals] : tree.by_name) {
    std::string name = "self_ms." + span;
    std::replace(name.begin(), name.end(), '/', '.');
    report->Layer(name,
                  static_cast<double>(totals.self_us) / 1e3 /
                      static_cast<double>(roots),
                  "ms");
  }
}

namespace {

/// Each advising workload runs its reference rate open loop for half the
/// run and a saturating load for the other half.
ServeSpec HotSpec() {
  ServeSpec spec;
  spec.name = "advising_hot";
  // A catalog epoch's popular questions: few enough, and small enough, to
  // all sit in the result tier (64 entries, 256 MiB) once warmed.
  // They are the same questions on every seed: which students ask them,
  // in what order and when, is what the seed draws.
  spec.distinct_asks = 48;
  spec.fixed_ask_seed = 1;
  spec.max_answer_nodes = 20000;
  spec.mix.max_deadline_horizon = 2;
  spec.reference_rate = 1000;
  return spec;
}

ServeSpec ColdSpec() {
  ServeSpec spec;
  spec.name = "advising_cold";
  spec.mix.max_deadline_horizon = 1;
  spec.mix.long_share = 0.05;
  spec.reference_rate = 100;
  return spec;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload advising_hot|advising_cold|"
               "paper_batch --seed N --seconds S --trace 0|1 [--commit ID]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string commit = "unknown";
  RunOptions options;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !have_seconds) {
    return Usage();
  }

  ServeSpec spec;
  const bool batch = workload == "paper_batch";
  if (workload == "advising_hot") {
    spec = HotSpec();
  } else if (workload == "advising_cold") {
    spec = ColdSpec();
  } else if (!batch) {
    return Usage();
  }
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d\n"
      "commit=%s build=%s simd=%s nproc=%u server_workers=%d\n",
      workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, commit.c_str(),
      PERFBENCH_BUILD_TYPE, coursenav::simd::Active().name,
      std::thread::hardware_concurrency(), batch ? 0 : kServerWorkers);

  Report report = batch ? RunPaperBatch(options) : RunServeWorkload(spec, options);
  report.Print(options.trace);
  return 0;
}
