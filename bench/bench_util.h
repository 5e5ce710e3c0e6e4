#ifndef COURSENAV_BENCH_BENCH_UTIL_H_
#define COURSENAV_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/simd/simd.h"
#include "util/string_util.h"

// Set on every bench target by bench/CMakeLists.txt.
#ifndef COURSENAV_BENCH_BUILD_TYPE
#define COURSENAV_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef COURSENAV_BENCH_SOURCE_DIR
#define COURSENAV_BENCH_SOURCE_DIR ""
#endif

namespace coursenav::bench {

/// Tiny flag reader shared by the reproduction harnesses.
/// Supported forms: `--full` (raise budgets to reach the paper's largest
/// configurations), `--profile` (per-stage span profile after the tables),
/// `--threads=<n>` (worker threads for the generators; 0 = serial),
/// `--json-out=<file>` (machine-readable BenchReport for cross-PR perf
/// tracking), and `--spans=4,5` style overrides, parsed by callers.
struct BenchArgs {
  bool full = false;
  bool profile = false;
  int threads = 0;
  std::string json_out;
  std::vector<std::string> raw;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--full") {
        args.full = true;
      } else if (arg == "--profile") {
        args.profile = true;
      } else if (arg.rfind("--threads=", 0) == 0) {
        args.threads = std::atoi(arg.c_str() + 10);
      } else if (arg.rfind("--json-out=", 0) == 0) {
        args.json_out = arg.substr(11);
      } else {
        args.raw.push_back(arg);
      }
    }
    return args;
  }
};

/// The process's peak resident set size in bytes (Linux ru_maxrss is in
/// kilobytes). 0 if the kernel refuses rusage.
inline uint64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

/// The short commit id of the checkout the bench was built from, read at
/// run time as perfbench/run.py reads it (`git rev-parse --short HEAD` in
/// that tree, never in a repository above it), or "unknown" outside a
/// checkout.
inline std::string CheckoutCommit() {
  const std::string root = COURSENAV_BENCH_SOURCE_DIR;
  const size_t slash = root.find_last_of('/');
  if (root.empty() || slash == std::string::npos) return "unknown";
  const std::string command = "GIT_CEILING_DIRECTORIES='" +
                              root.substr(0, slash) + "' git -C '" + root +
                              "' rev-parse --short HEAD 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buf[64];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const bool ok = pclose(pipe) == 0;
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back()))) {
    out.pop_back();
  }
  return ok && !out.empty() ? out : "unknown";
}

/// Machine-readable sibling of the printed tables: rows of key->value
/// objects plus a header naming what was measured (the checkout's commit,
/// the build type, the active SIMD kernel table, threads) and the run's
/// peak RSS, dumped as one JSON document so the perf trajectory is
/// trackable across PRs (`BENCH_table2.json`, `BENCH_figure4.json`, ...).
class BenchReport {
 public:
  BenchReport(std::string bench_name, const BenchArgs& args)
      : name_(std::move(bench_name)), full_(args.full),
        threads_(args.threads) {}

  void AddRow(JsonValue::Object row) { rows_.push_back(std::move(row)); }

  /// Writes the report to `path` (pretty-printed JSON). Peak RSS is
  /// sampled here, at the end of the run.
  bool WriteTo(const std::string& path) const {
    JsonValue::Object doc;
    doc["bench"] = name_;
    doc["commit"] = CheckoutCommit();
    doc["build_type"] = COURSENAV_BENCH_BUILD_TYPE;
    doc["simd"] = simd::Active().name;
    doc["full"] = full_;
    doc["threads"] = threads_;
    doc["peak_rss_bytes"] = static_cast<int64_t>(PeakRssBytes());
    JsonValue::Array rows;
    rows.reserve(rows_.size());
    for (const JsonValue::Object& row : rows_) rows.emplace_back(row);
    doc["rows"] = std::move(rows);
    std::string text = JsonValue(std::move(doc)).Dump(2);
    text += "\n";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

  /// Writes to `args.json_out` when the flag was given.
  bool WriteIfRequested(const BenchArgs& args) const {
    if (args.json_out.empty()) return true;
    return WriteTo(args.json_out);
  }

 private:
  std::string name_;
  bool full_;
  int threads_;
  std::vector<JsonValue::Object> rows_;
};

/// Adds a materializing row's graph-size columns: `bytes_per_node` (the
/// graph's `MemoryUsage()` estimate per node, the figure its memory budget
/// enforces) and `arena_bytes` (the arena chunks and spilled bitset words
/// it really held, as `AllocatedBytes()` reports them).
inline void AddGraphBytes(int64_t nodes, size_t memory_bytes,
                          size_t allocated_bytes, JsonValue::Object* row) {
  (*row)["bytes_per_node"] =
      nodes > 0 ? static_cast<double>(memory_bytes) / static_cast<double>(nodes)
                : 0.0;
  (*row)["arena_bytes"] = static_cast<int64_t>(allocated_bytes);
}

/// Fixed-width text table, printed in the paper's row/column layout.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::string line = "|";
      for (size_t c = 0; c < widths.size(); ++c) {
        std::string cell = c < cells.size() ? cells[c] : "";
        line += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
      }
      std::printf("%s\n", line.c_str());
    };
    std::string rule = "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      rule += std::string(widths[c] + 2, '-') + "+";
    }
    std::printf("%s\n", rule.c_str());
    print_row(headers_);
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
    std::printf("%s\n", rule.c_str());
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats big counts with thousands separators, as the paper prints them.
inline std::string WithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int counter = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (counter != 0 && counter % 3 == 0) out.insert(out.begin(), ',');
    out.insert(out.begin(), *it);
    ++counter;
  }
  return out;
}

inline std::string Seconds(double s) { return StrFormat("%.3f", s); }

/// Per-stage profiling for a harness run (`--profile`): owns a span
/// tracer, installs it on the constructing thread for the profiler's
/// lifetime, and prints the per-stage aggregate (calls, total and max
/// duration per span name) collected across every run in between.
class StageProfiler {
 public:
  StageProfiler() : install_(&tracer_) {}

  obs::Tracer* tracer() { return &tracer_; }

  void Print() const {
    std::vector<obs::SpanAggregate> aggregates =
        obs::AggregateSpans(tracer_.Spans());
    std::printf("\nper-stage profile:\n");
    if (aggregates.empty()) {
      // Possible when the binary was built with -DCOURSENAV_TRACING=OFF.
      std::printf("(no spans recorded — was tracing compiled out?)\n");
      return;
    }
    TextTable table({"stage", "spans", "total ms", "max ms"});
    for (const obs::SpanAggregate& aggregate : aggregates) {
      table.AddRow({aggregate.name, WithCommas(
                        static_cast<uint64_t>(aggregate.count)),
                    StrFormat("%.3f",
                              static_cast<double>(aggregate.total_us) / 1e3),
                    StrFormat("%.3f",
                              static_cast<double>(aggregate.max_us) / 1e3)});
    }
    table.Print();
    if (tracer_.dropped() > 0) {
      std::printf("(trace buffer full: %zu spans dropped)\n",
                  tracer_.dropped());
    }
  }

 private:
  obs::Tracer tracer_;
  obs::ScopedTracer install_;
};

}  // namespace coursenav::bench

#endif  // COURSENAV_BENCH_BENCH_UTIL_H_
