#include "obs/metrics.h"

#include <algorithm>

namespace coursenav::obs {

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

int64_t Histogram::UpperBound(int bucket) {
  if (bucket >= kNumBuckets - 1) return INT64_MAX;  // +Inf bucket
  return int64_t{1} << bucket;
}

int Histogram::BucketIndex(int64_t value) {
  if (value < 1) return 0;
  int bucket = 1;
  while (bucket < kNumBuckets - 1 && value >= (int64_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

namespace {

/// Interning body shared by the three kinds. The caller holds the
/// registry's mutex and passes the guarded containers by reference — the
/// lock lives in the member function so the thread-safety analysis sees
/// the guarded accesses under the right capability.
template <typename Slot>
MetricId InternLocked(std::unordered_map<std::string, int>& ids,
                      std::deque<Slot>& slots,
                      std::deque<std::string>& names, MetricKind kind,
                      std::string_view name) {
  auto it = ids.find(std::string(name));
  if (it != ids.end()) return {kind, it->second};
  int index = static_cast<int>(slots.size());
  slots.emplace_back();
  names.emplace_back(name);
  ids.emplace(std::string(name), index);
  return {kind, index};
}

}  // namespace

MetricId MetricRegistry::InternCounter(std::string_view name) {
  MutexLock lock(mu_);
  return InternLocked(counter_ids_, counters_, counter_names_,
                      MetricKind::kCounter, name);
}

MetricId MetricRegistry::InternGauge(std::string_view name) {
  MutexLock lock(mu_);
  return InternLocked(gauge_ids_, gauges_, gauge_names_, MetricKind::kGauge,
                      name);
}

MetricId MetricRegistry::InternHistogram(std::string_view name) {
  MutexLock lock(mu_);
  return InternLocked(histogram_ids_, histograms_, histogram_names_,
                      MetricKind::kHistogram, name);
}

Counter* MetricRegistry::counter(MetricId id) {
  MutexLock lock(mu_);
  return &counters_[static_cast<size_t>(id.index)];
}

Gauge* MetricRegistry::gauge(MetricId id) {
  MutexLock lock(mu_);
  return &gauges_[static_cast<size_t>(id.index)];
}

Histogram* MetricRegistry::histogram(MetricId id) {
  MutexLock lock(mu_);
  return &histograms_[static_cast<size_t>(id.index)];
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    MutexLock lock(mu_);
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (size_t i = 0; i < counters_.size(); ++i) {
      MetricSnapshot snap;
      snap.name = counter_names_[i];
      snap.kind = MetricKind::kCounter;
      snap.value = counters_[i].Value();
      out.push_back(std::move(snap));
    }
    for (size_t i = 0; i < gauges_.size(); ++i) {
      MetricSnapshot snap;
      snap.name = gauge_names_[i];
      snap.kind = MetricKind::kGauge;
      snap.value = gauges_[i].Value();
      out.push_back(std::move(snap));
    }
    for (size_t i = 0; i < histograms_.size(); ++i) {
      MetricSnapshot snap;
      snap.name = histogram_names_[i];
      snap.kind = MetricKind::kHistogram;
      snap.value = histograms_[i].Count();
      snap.sum = histograms_[i].Sum();
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        snap.buckets[static_cast<size_t>(b)] = histograms_[i].BucketCount(b);
      }
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.name < b.name;
            });
  return out;
}

size_t MetricRegistry::InternedNameCount() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricRegistry& GlobalMetrics() {
  // Leaky singleton: workers may flush metrics during static destruction.
  static MetricRegistry* registry =
      new MetricRegistry();  // NOLINT(coursenav-raw-new)
  return *registry;
}

std::string LabeledMetricName(std::string_view base, std::string_view key,
                              std::string_view value) {
  std::string name;
  name.reserve(base.size() + key.size() + value.size() + 2);
  name.append(base);
  name.push_back('|');
  name.append(key);
  name.push_back('=');
  name.append(value);
  return name;
}

}  // namespace coursenav::obs
