#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double NowSeconds();

/// Nearest-rank quantile (0 <= q <= 1) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest quantile that leaves at least ten samples beyond it among
/// `n` samples (0.5 when there are too few for that to be above the median).
double TailQuantile(size_t n);

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next PeakRssMb() reading covers only what runs after this call.
void ResetPeakRss();
/// VmHWM and VmRSS of this process, in MiB.
double PeakRssMb();
double CurrentRssMb();

/// Samples the peak RSS over consecutive windows on a background thread,
/// from construction until Stop(), resetting the kernel's mark after each.
/// A median over windows reports the memory a phase typically peaks at, so
/// one rare coincidence of large requests does not decide the number.
class PeakRssSampler {
 public:
  explicit PeakRssSampler(double window_seconds);
  ~PeakRssSampler();
  PeakRssSampler(const PeakRssSampler&) = delete;
  PeakRssSampler& operator=(const PeakRssSampler&) = delete;

  /// Ends sampling; returns the median of the windows' peaks in MiB.
  double Stop();

 private:
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> peaks_;
  std::thread thread_;
};

/// Gives freed heap pages back to the kernel, so that a later RSS delta
/// measures the next cell rather than what the allocator kept.
void TrimHeap();

/// One measured number, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports: the end-to-end metrics (printed
/// with --trace 0), the per-layer metrics (printed with --trace 1), and the
/// correctness tally.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness failure: prints it and clears `correct`.
  void Wrong(const std::string& what);

  /// Every metric as "name value unit" lines, then the result as one JSON
  /// object on the last line (end-to-end metrics, or per-layer ones when
  /// `trace` is set).
  void Print(bool trace) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
