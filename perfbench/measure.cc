#include "measure.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "util/json.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // The smallest value with at least a q share of the values at or below
  // it; the epsilon keeps q * n = 990 from rounding up to 991.
  const double rank =
      std::ceil(q * static_cast<double>(values.size()) - 1e-9) - 1.0;
  return values[static_cast<size_t>(
      std::clamp(rank, 0.0, static_cast<double>(values.size() - 1)))];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double TailQuantile(size_t n) {
  if (n <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(n);
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0) {
      return std::stod(line.substr(length + 1)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

void TrimHeap() { malloc_trim(0); }

PeakRssSampler::PeakRssSampler(double window_seconds) {
  ResetPeakRss();
  thread_ = std::thread([this, window_seconds] {
    const auto window = std::chrono::duration<double>(window_seconds);
    std::unique_lock<std::mutex> lock(mu_);
    while (!wake_.wait_for(lock, window, [this] { return stop_; })) {
      peaks_.push_back(PeakRssMb());
      ResetPeakRss();
    }
    // The last, partial window counts only when it is the only one.
    if (peaks_.empty()) peaks_.push_back(PeakRssMb());
  });
}

PeakRssSampler::~PeakRssSampler() { Stop(); }

double PeakRssSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  return Median(peaks_);
}

void Report::Wrong(const std::string& what) {
  std::printf("WRONG: %s\n", what.c_str());
  correct = false;
}

void Report::Print(bool trace) const {
  std::printf("\nend-to-end:\n");
  for (const Metric& m : end_to_end) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("per-layer:\n");
  for (const Metric& m : per_layer) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("correct=%s attempted=%lld failed=%lld\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));

  using coursenav::JsonValue;
  JsonValue::Object metrics;
  for (const Metric& m : trace ? per_layer : end_to_end) {
    JsonValue::Object entry;
    entry["value"] = JsonValue(m.value);
    entry["unit"] = JsonValue(m.unit);
    metrics[m.name] = JsonValue(std::move(entry));
  }
  JsonValue::Object result;
  result["correct"] = JsonValue(correct);
  result["attempted"] = JsonValue(attempted);
  result["failed"] = JsonValue(failed);
  result["metrics"] = JsonValue(std::move(metrics));
  std::printf("%s\n", JsonValue(std::move(result)).Dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
