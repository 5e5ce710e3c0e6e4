#include "obs/trace.h"

namespace coursenav::obs {

namespace {
/// Thread-local tracing context. Plain pointers/ints: trivially
/// destructible per the static-storage rules.
thread_local Tracer* tls_tracer = nullptr;
thread_local int64_t tls_current_span = 0;
}  // namespace

SpanAttribute SpanAttribute::Int(std::string_view key, int64_t value) {
  SpanAttribute attr;
  attr.key = std::string(key);
  attr.kind = Kind::kInt;
  attr.int_value = value;
  return attr;
}

SpanAttribute SpanAttribute::Double(std::string_view key, double value) {
  SpanAttribute attr;
  attr.key = std::string(key);
  attr.kind = Kind::kDouble;
  attr.double_value = value;
  return attr;
}

SpanAttribute SpanAttribute::String(std::string_view key,
                                    std::string_view value) {
  SpanAttribute attr;
  attr.key = std::string(key);
  attr.kind = Kind::kString;
  attr.string_value = std::string(value);
  return attr;
}

Tracer::Tracer(size_t max_spans)
    : epoch_(std::chrono::steady_clock::now()), max_spans_(max_spans) {}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t Tracer::NextSpanId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(SpanRecord record) {
  MutexLock lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(record));
}

void Tracer::EmitSpan(std::string_view name, int64_t start_us,
                      int64_t duration_us,
                      std::vector<SpanAttribute> attributes) {
  SpanRecord record;
  record.span_id = NextSpanId();
  record.parent_id = CurrentSpanId();
  record.name = std::string(name);
  record.start_us = start_us;
  record.duration_us = duration_us;
  record.attributes = std::move(attributes);
  Record(std::move(record));
}

std::vector<SpanRecord> Tracer::Spans() const {
  MutexLock lock(mu_);
  return spans_;
}

size_t Tracer::span_count() const {
  MutexLock lock(mu_);
  return spans_.size();
}

size_t Tracer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

Tracer* CurrentTracer() { return tls_tracer; }

int64_t CurrentSpanId() { return tls_current_span; }

ScopedTracer::ScopedTracer(Tracer* tracer)
    : previous_(tls_tracer), previous_span_(tls_current_span) {
  tls_tracer = tracer;
  tls_current_span = 0;
}

ScopedTracer::~ScopedTracer() {
  tls_tracer = previous_;
  tls_current_span = previous_span_;
}

namespace internal {

int64_t ExchangeCurrentSpan(int64_t span_id) {
  int64_t previous = tls_current_span;
  tls_current_span = span_id;
  return previous;
}

void SetThreadTracer(Tracer* tracer) { tls_tracer = tracer; }

}  // namespace internal

#if COURSENAV_TRACING

void StageAccumulator::EmitMean(
    std::string_view name, std::span<const StageAccumulator* const> workers,
    std::vector<SpanAttribute> extra_attributes) {
  if (workers.empty() || workers.front()->tracer_ == nullptr) return;
  Tracer* tracer = workers.front()->tracer_;
  int64_t cpu_us = 0;
  int64_t calls = 0;
  for (const StageAccumulator* worker : workers) {
    cpu_us += worker->total_us_;
    calls += worker->count_;
  }
  const int64_t num_workers = static_cast<int64_t>(workers.size());
  const int64_t mean_us = cpu_us / num_workers;
  std::vector<SpanAttribute> attributes;
  attributes.push_back(SpanAttribute::Int("calls", calls));
  attributes.push_back(SpanAttribute::Int("workers", num_workers));
  attributes.push_back(SpanAttribute::Int("cpu_us", cpu_us));
  for (SpanAttribute& attr : extra_attributes) {
    attributes.push_back(std::move(attr));
  }
  int64_t now = tracer->NowMicros();
  tracer->EmitSpan(name, now - mean_us, mean_us, std::move(attributes));
}

#endif  // COURSENAV_TRACING

}  // namespace coursenav::obs
