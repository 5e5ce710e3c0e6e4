#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asks.h"
#include "measure.h"
#include "span_tree.h"

namespace perfbench {

/// The command line of one run.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Times each workload sets up; setup_s is the median.
constexpr int kSetUps = 15;

/// Worker threads of the advising workloads' server: fewer than the
/// host's cores, so that the senders have cores of their own.
constexpr int kServerWorkers = 2;

/// An advising workload against the in-process server.
struct ServeSpec {
  std::string name;
  /// > 0: a fixed set of this many distinct asks, re-asked with Zipf
  /// popularity and warmed into the cache during set-up. 0: every request
  /// is an ask not sent before.
  int distinct_asks = 0;
  /// When set, the ask set is drawn from this seed rather than the run's:
  /// the run's seed then draws only the request order and arrival times.
  uint64_t fixed_ask_seed = 0;
  /// When set, only asks whose full answer has at most this many nodes.
  int64_t max_answer_nodes = 0;
  AskMix mix;
  /// The open-loop arrival rate in 1/s at which latency is reported, well
  /// inside the server's capacity.
  double reference_rate = 0.0;
};

Report RunServeWorkload(const ServeSpec& spec, const RunOptions& options);

/// The paper's cells called directly, with no server and no cache.
Report RunPaperBatch(const RunOptions& options);

/// Reports a traced run's span tree: its size, any child-exceeds-parent
/// violations (each also a correctness failure), and the self time of each
/// span name in ms per traced root (a request, or a batch pass).
void ReportSpanTree(const SpanTree& tree, int64_t roots, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
