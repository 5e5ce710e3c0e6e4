#ifndef COURSENAV_OBS_TRACE_H_
#define COURSENAV_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

/// Compile-time kill-switch for span instrumentation. When 0, ScopedSpan,
/// StageAccumulator, and the COURSENAV_TRACE_SPAN macro compile to empty
/// inline bodies — zero clock reads, zero branches on the hot path. The
/// Tracer type itself always exists so exporters and tools still link.
#ifndef COURSENAV_TRACING
#define COURSENAV_TRACING 1
#endif

namespace coursenav::obs {

/// One attribute on a finished span. A tagged scalar keeps the exporter
/// trivial (no variant headers in this hot include).
struct SpanAttribute {
  enum class Kind { kInt, kDouble, kString };

  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;

  static SpanAttribute Int(std::string_view key, int64_t value);
  static SpanAttribute Double(std::string_view key, double value);
  static SpanAttribute String(std::string_view key, std::string_view value);
};

/// A finished span: a named interval on the tracer's steady-clock timeline
/// with a parent link (0 = root) and optional attributes.
struct SpanRecord {
  int64_t span_id = 0;
  int64_t parent_id = 0;
  std::string name;
  /// Microseconds since the owning tracer's epoch (steady clock).
  int64_t start_us = 0;
  int64_t duration_us = 0;
  std::vector<SpanAttribute> attributes;
};

/// Collects finished spans for one exploration run / CLI invocation /
/// benchmark repetition. Span *recording* takes a mutex (spans are emitted
/// at stage granularity, not per node, so this is cold); parent linkage is
/// tracked per thread. Bounded: past `max_spans`, further records are
/// dropped and counted, never reallocated without bound.
class Tracer {
 public:
  explicit Tracer(size_t max_spans = 1 << 18);

  /// Microseconds since this tracer's construction (steady clock).
  int64_t NowMicros() const;

  /// Allocates a fresh span id (lock-free).
  int64_t NextSpanId();

  /// Records a finished span. Thread-safe.
  void Record(SpanRecord record);

  /// Emits an already-measured interval as a span parented under the
  /// calling thread's current span (aggregate stage spans use this).
  void EmitSpan(std::string_view name, int64_t start_us, int64_t duration_us,
                std::vector<SpanAttribute> attributes = {});

  /// Copies out everything recorded so far, in record order.
  std::vector<SpanRecord> Spans() const;

  size_t span_count() const;
  /// Spans discarded because the buffer was full.
  size_t dropped() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  size_t max_spans_;  // set in the constructor, read-only afterwards
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ CN_GUARDED_BY(mu_);
  size_t dropped_ CN_GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> next_id_{1};
};

/// The tracer observed by instrumentation on the calling thread, or null
/// when tracing is not active (the common case — one pointer load).
Tracer* CurrentTracer();

/// The calling thread's innermost open span id (0 when none). Exposed for
/// aggregate emitters; ScopedSpan maintains it automatically.
int64_t CurrentSpanId();

/// RAII installation of a tracer for the calling thread. Restores the
/// previous tracer (usually none) on destruction.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer);
  ~ScopedTracer();

  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
  int64_t previous_span_;
};

namespace internal {
/// Swaps the thread-local current span id, returning the previous one.
int64_t ExchangeCurrentSpan(int64_t span_id);
void SetThreadTracer(Tracer* tracer);
}  // namespace internal

#if COURSENAV_TRACING

/// RAII span: opens on construction (when a tracer is installed on this
/// thread), records on destruction. Cheap when tracing is inactive: one
/// thread-local load and branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : tracer_(CurrentTracer()) {
    if (tracer_ == nullptr) return;
    record_.span_id = tracer_->NextSpanId();
    record_.name = std::string(name);
    record_.start_us = tracer_->NowMicros();
    record_.parent_id = internal::ExchangeCurrentSpan(record_.span_id);
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    record_.duration_us = tracer_->NowMicros() - record_.start_us;
    internal::ExchangeCurrentSpan(record_.parent_id);
    tracer_->Record(std::move(record_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool enabled() const { return tracer_ != nullptr; }

  void AddInt(std::string_view key, int64_t value) {
    if (tracer_ != nullptr) {
      record_.attributes.push_back(SpanAttribute::Int(key, value));
    }
  }
  void AddDouble(std::string_view key, double value) {
    if (tracer_ != nullptr) {
      record_.attributes.push_back(SpanAttribute::Double(key, value));
    }
  }
  void AddString(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) {
      record_.attributes.push_back(SpanAttribute::String(key, value));
    }
  }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// Accumulates many short intervals into one aggregate span — the pattern
/// for per-child hot paths (pruning checks, ranking evaluation) where a
/// span per call would swamp the trace. Bind once per run (once per worker
/// in a parallel run), sample with StageSample, then emit one span per run
/// carrying the stage's duration and call count.
class StageAccumulator {
 public:
  StageAccumulator() : tracer_(CurrentTracer()) {}

  bool enabled() const { return tracer_ != nullptr; }

  void Add(int64_t duration_us) {
    total_us_ += duration_us;
    ++count_;
  }

  int64_t total_us() const { return total_us_; }
  int64_t count() const { return count_; }

  /// Emits a serial run's aggregate: EmitMean over this one accumulator.
  void Emit(std::string_view name,
            std::vector<SpanAttribute> extra_attributes = {}) const {
    const StageAccumulator* self = this;
    EmitMean(name, {&self, 1}, std::move(extra_attributes));
  }

  /// Emits the accumulators of one run's workers (all bound to the same
  /// tracer; a serial run has one) as one span, parented under the current
  /// span and emitted even when no samples were taken, so traces always
  /// show the stage. It lasts the workers' *mean* stage time, the stage's
  /// share of the run's wall clock: their summed time is CPU time and
  /// would overrun the parent span. Carries `calls` (summed), `workers`,
  /// and `cpu_us` (the summed time) attributes.
  static void EmitMean(std::string_view name,
                       std::span<const StageAccumulator* const> workers,
                       std::vector<SpanAttribute> extra_attributes = {});

  Tracer* tracer() const { return tracer_; }

 private:
  Tracer* tracer_;
  int64_t total_us_ = 0;
  int64_t count_ = 0;
};

/// RAII sample feeding a StageAccumulator; reads the clock only when the
/// accumulator is bound to a tracer.
class StageSample {
 public:
  explicit StageSample(StageAccumulator* accumulator)
      : accumulator_(accumulator),
        start_us_(accumulator->enabled()
                      ? accumulator->tracer()->NowMicros()
                      : 0) {}

  ~StageSample() {
    if (accumulator_->enabled()) {
      accumulator_->Add(accumulator_->tracer()->NowMicros() - start_us_);
    }
  }

  StageSample(const StageSample&) = delete;
  StageSample& operator=(const StageSample&) = delete;

 private:
  StageAccumulator* accumulator_;
  int64_t start_us_;
};

#else  // !COURSENAV_TRACING — every instrumentation type is a no-op.

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view) {}
  bool enabled() const { return false; }
  void AddInt(std::string_view, int64_t) {}
  void AddDouble(std::string_view, double) {}
  void AddString(std::string_view, std::string_view) {}
};

class StageAccumulator {
 public:
  bool enabled() const { return false; }
  void Add(int64_t) {}
  int64_t total_us() const { return 0; }
  int64_t count() const { return 0; }
  void Emit(std::string_view, std::vector<SpanAttribute> = {}) const {}
  static void EmitMean(std::string_view,
                       std::span<const StageAccumulator* const>,
                       std::vector<SpanAttribute> = {}) {}
  Tracer* tracer() const { return nullptr; }
};

class StageSample {
 public:
  explicit StageSample(StageAccumulator*) {}
};

#endif  // COURSENAV_TRACING

/// Span taxonomy (docs/observability.md documents the full tree).
inline constexpr std::string_view kSpanGenerateDeadline = "generate/deadline";
inline constexpr std::string_view kSpanGenerateGoal = "generate/goal";
inline constexpr std::string_view kSpanGenerateRanked = "generate/ranked";
inline constexpr std::string_view kSpanCountPaths = "count/paths";
inline constexpr std::string_view kSpanGraphConstruct = "graph/construct";
inline constexpr std::string_view kSpanGraphCanonicalize =
    "graph/canonicalize";
inline constexpr std::string_view kSpanExpandLoop = "expand/loop";
inline constexpr std::string_view kSpanPruneTime = "prune/time";
inline constexpr std::string_view kSpanPruneAvailability =
    "prune/availability";
inline constexpr std::string_view kSpanRankEvaluate = "rank/evaluate";
inline constexpr std::string_view kSpanFlowCheck = "flow/credited_slots";
inline constexpr std::string_view kSpanDegradeLadder = "degrade/ladder";
inline constexpr std::string_view kSpanDegradeRung = "degrade/rung";
inline constexpr std::string_view kSpanSessionQuery = "session/query";
inline constexpr std::string_view kSpanPlanLower = "plan/lower";
inline constexpr std::string_view kSpanCacheLookup = "cache/lookup";
inline constexpr std::string_view kSpanServeRequest = "serve/request";
inline constexpr std::string_view kSpanServeAdmissionWait =
    "serve/admission_wait";
inline constexpr std::string_view kSpanServeClamp = "serve/clamp";

}  // namespace coursenav::obs

#endif  // COURSENAV_OBS_TRACE_H_
