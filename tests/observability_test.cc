#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/counting.h"
#include "core/goal_generator.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
#include "core/stats.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"
#include "util/json.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricId;
using obs::MetricKind;
using obs::MetricRegistry;
using obs::MetricSnapshot;
using testing_util::Figure3Fixture;

TEST(MetricPrimitivesTest, CounterAndGauge) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42);

  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.UpdateMax(3);  // lower: no effect
  EXPECT_EQ(gauge.Value(), 7);
  gauge.UpdateMax(11);
  EXPECT_EQ(gauge.Value(), 11);
}

TEST(MetricPrimitivesTest, HistogramBucketing) {
  // Bucket 0 holds v < 1; bucket i holds v < 2^i; the last is unbounded.
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 62),
            Histogram::kNumBuckets - 1);

  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(3);
  histogram.Observe(3);
  histogram.Observe(1024);
  EXPECT_EQ(histogram.Count(), 4);
  EXPECT_EQ(histogram.Sum(), 0 + 3 + 3 + 1024);
  EXPECT_EQ(histogram.BucketCount(0), 1);
  EXPECT_EQ(histogram.BucketCount(2), 2);
  EXPECT_EQ(histogram.BucketCount(11), 1);
}

TEST(MetricRegistryTest, InterningIsIdempotentAndPerKind) {
  MetricRegistry registry;
  MetricId a = registry.InternCounter("widgets_total");
  MetricId b = registry.InternCounter("widgets_total");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(registry.counter(a), registry.counter(b));
  // The same name as a different kind is a distinct metric slot.
  MetricId g = registry.InternGauge("widgets_total");
  EXPECT_EQ(g.kind, MetricKind::kGauge);
  MetricId c = registry.InternCounter("other_total");
  EXPECT_NE(a.index, c.index);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete) {
  MetricRegistry registry;
  registry.GetCounter("zeta_total")->Increment(3);
  registry.GetCounter("alpha_total")->Increment(1);
  registry.GetGauge("peak")->Set(9);
  registry.GetHistogram("latency_us")->Observe(100);

  std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  // Counters sort by name, then gauges, then histograms.
  EXPECT_EQ(snapshot[0].name, "alpha_total");
  EXPECT_EQ(snapshot[0].value, 1);
  EXPECT_EQ(snapshot[1].name, "zeta_total");
  EXPECT_EQ(snapshot[1].value, 3);
  EXPECT_EQ(snapshot[2].name, "peak");
  EXPECT_EQ(snapshot[2].kind, MetricKind::kGauge);
  EXPECT_EQ(snapshot[3].name, "latency_us");
  EXPECT_EQ(snapshot[3].kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot[3].value, 1);  // observation count
  EXPECT_EQ(snapshot[3].sum, 100);
}

TEST(PrometheusRenderTest, EmitsTypedSeriesWithPrefix) {
  MetricRegistry registry;
  registry.GetCounter("nodes_total")->Increment(7);
  registry.GetGauge("peak")->Set(3);
  Histogram* histogram = registry.GetHistogram("latency_us");
  histogram->Observe(1);
  histogram->Observe(500);

  std::string text = obs::RenderPrometheus(registry);
  EXPECT_NE(text.find("# TYPE coursenav_nodes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("coursenav_nodes_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE coursenav_peak gauge"), std::string::npos);
  EXPECT_NE(text.find("coursenav_peak 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE coursenav_latency_us histogram"),
            std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("coursenav_latency_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("coursenav_latency_us_sum 501"), std::string::npos);
  EXPECT_NE(text.find("coursenav_latency_us_count 2"), std::string::npos);
}

// Satellite regression: ToString must carry runtime_seconds and the
// pruning breakdown percentages (it silently dropped both before the
// observability refactor).
TEST(ExplorationStatsTest, ToStringIncludesRuntimeAndPruningShares) {
  ExplorationStats stats;
  stats.nodes_created = 10;
  stats.pruned_time = 4;
  stats.pruned_availability = 1;
  stats.runtime_seconds = 1.5;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("runtime_seconds=1.500"), std::string::npos) << text;
  EXPECT_NE(text.find("pruned=5"), std::string::npos) << text;
  EXPECT_NE(text.find("pruned_time=4 80.0%"), std::string::npos) << text;
  EXPECT_NE(text.find("pruned_avail=1 20.0%"), std::string::npos) << text;

  // No division by zero when nothing was pruned.
  ExplorationStats clean;
  clean.runtime_seconds = 0.25;
  text = clean.ToString();
  EXPECT_NE(text.find("pruned=0"), std::string::npos) << text;
  EXPECT_NE(text.find("runtime_seconds=0.250"), std::string::npos) << text;
}

TEST(ExplorationStatsTest, MergeFromAddsEveryTallyButNotTheRuntime) {
  ExplorationStats run;
  run.nodes_created = 11;
  run.budget_checks = 20;
  run.runtime_seconds = 0.5;
  ExplorationStats worker;
  worker.nodes_created = 1;
  worker.edges_created = 2;
  worker.nodes_expanded = 3;
  worker.terminal_paths = 4;
  worker.goal_paths = 5;
  worker.dead_end_paths = 6;
  worker.pruned_time = 7;
  worker.pruned_availability = 8;
  worker.budget_checks = 9;
  worker.runtime_seconds = 9.0;

  run.MergeFrom(worker);
  EXPECT_EQ(run.nodes_created, 12);
  EXPECT_EQ(run.edges_created, 2);
  EXPECT_EQ(run.nodes_expanded, 3);
  EXPECT_EQ(run.terminal_paths, 4);
  EXPECT_EQ(run.goal_paths, 5);
  EXPECT_EQ(run.dead_end_paths, 6);
  EXPECT_EQ(run.pruned_time, 7);
  EXPECT_EQ(run.pruned_availability, 8);
  EXPECT_EQ(run.budget_checks, 29);
  EXPECT_EQ(run.runtime_seconds, 0.5);

  // Budget checks are published as a metric only; the printed forms keep
  // their fields.
  EXPECT_EQ(run.ToString().find("budget"), std::string::npos);
  EXPECT_FALSE(run.ToJson().Has("budget_checks"));
}

#if COURSENAV_TRACING

TEST(TracerTest, NestedSpansCarryParentLinks) {
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(&tracer);
    obs::ScopedSpan outer("outer");
    outer.AddInt("n", 1);
    {
      obs::ScopedSpan inner("inner");
      inner.AddString("tag", "x");
    }
  }
  std::vector<obs::SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record on close: inner first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].key, "tag");
  EXPECT_EQ(spans[0].attributes[0].string_value, "x");
}

TEST(TracerTest, NoTracerMeansNoRecording) {
  // Without an installed tracer every span is inert; this must not crash
  // and must record nothing anywhere.
  obs::ScopedSpan span("orphan");
  span.AddInt("n", 1);
  EXPECT_FALSE(span.enabled());
}

TEST(TracerTest, BufferIsBoundedAndCountsDrops) {
  obs::Tracer tracer(/*max_spans=*/2);
  obs::ScopedTracer install(&tracer);
  for (int i = 0; i < 5; ++i) {
    obs::ScopedSpan span("s");
  }
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(TracerTest, GoalRunEmitsStageSpansAndReconcilesWithStats) {
  Figure3Fixture fix;
  Term fall12(Season::kFall, 2012);
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());

  obs::Tracer tracer;
  ExplorationStats stats;
  {
    obs::ScopedTracer install(&tracer);
    auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                          fix.FreshStudent(), fall12, **goal,
                                          options);
    ASSERT_TRUE(result.ok());
    stats = result->stats;
  }

  std::vector<obs::SpanRecord> spans = tracer.Spans();
  int64_t run_span_id = 0;
  const obs::SpanRecord* prune_time = nullptr;
  const obs::SpanRecord* prune_availability = nullptr;
  bool saw_construct = false;
  bool saw_expand = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == obs::kSpanGenerateGoal) run_span_id = span.span_id;
    if (span.name == obs::kSpanGraphConstruct) saw_construct = true;
    if (span.name == obs::kSpanExpandLoop) saw_expand = true;
    if (span.name == obs::kSpanPruneTime) prune_time = &span;
    if (span.name == obs::kSpanPruneAvailability) prune_availability = &span;
  }
  EXPECT_NE(run_span_id, 0);
  EXPECT_TRUE(saw_construct);
  EXPECT_TRUE(saw_expand);
  ASSERT_NE(prune_time, nullptr);
  ASSERT_NE(prune_availability, nullptr);

  // The stage spans' `pruned` attributes must reconcile exactly with the
  // legacy stats (they read the same counters).
  auto int_attribute = [](const obs::SpanRecord& span,
                          std::string_view key) -> int64_t {
    for (const obs::SpanAttribute& attribute : span.attributes) {
      if (attribute.key == key) return attribute.int_value;
    }
    return -1;
  };
  EXPECT_EQ(int_attribute(*prune_time, "pruned"), stats.pruned_time);
  EXPECT_EQ(int_attribute(*prune_availability, "pruned"),
            stats.pruned_availability);
  EXPECT_GT(stats.pruned_availability, 0);
  // A serial run is the one-worker case of the parallel emission: its
  // mean time is its whole strategy time.
  for (const obs::SpanRecord* span : {prune_time, prune_availability}) {
    EXPECT_EQ(int_attribute(*span, "workers"), 1) << span->name;
    EXPECT_EQ(int_attribute(*span, "cpu_us"), span->duration_us)
        << span->name;
  }
}

TEST(TraceExportTest, JsonLinesAreIndividuallyParseable) {
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(&tracer);
    obs::ScopedSpan outer("outer");
    outer.AddInt("count", 3);
    outer.AddDouble("share", 0.5);
    outer.AddString("label", "with \"quotes\" and\nnewline");
    obs::ScopedSpan inner("inner");
  }
  std::string jsonl = obs::TraceToJsonLines(tracer);
  ASSERT_FALSE(jsonl.empty());
  size_t start = 0;
  int lines = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = jsonl.substr(start, end - start);
    Result<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    EXPECT_TRUE(parsed->is_object());
    EXPECT_TRUE(parsed->Get("name").ok());
    EXPECT_TRUE(parsed->Get("span_id").ok());
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2);
}

TEST(TraceExportTest, AggregateSpansGroupsByName) {
  obs::Tracer tracer;
  tracer.EmitSpan("stage/a", 0, 10);
  tracer.EmitSpan("stage/a", 10, 30);
  tracer.EmitSpan("stage/b", 0, 5);
  std::vector<obs::SpanAggregate> aggregates =
      obs::AggregateSpans(tracer.Spans());
  ASSERT_EQ(aggregates.size(), 2u);
  // Sorted by total time, descending.
  EXPECT_EQ(aggregates[0].name, "stage/a");
  EXPECT_EQ(aggregates[0].count, 2);
  EXPECT_EQ(aggregates[0].total_us, 40);
  EXPECT_EQ(aggregates[0].max_us, 30);
  EXPECT_EQ(aggregates[1].name, "stage/b");
  EXPECT_EQ(aggregates[1].total_us, 5);
}

#endif  // COURSENAV_TRACING

TEST(LabeledMetricsTest, LabeledNamesRenderAsPrometheusLabels) {
  MetricRegistry registry;
  registry
      .GetCounter(obs::LabeledMetricName("requests_total", "tenant", "alpha"))
      ->Increment(3);
  registry
      .GetCounter(obs::LabeledMetricName("requests_total", "tenant", "beta"))
      ->Increment(5);
  registry
      .GetHistogram(obs::LabeledMetricName("wait_us", "tenant", "alpha"))
      ->Observe(7);

  std::string text = obs::RenderPrometheus(registry);
  EXPECT_NE(text.find("coursenav_requests_total{tenant=\"alpha\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("coursenav_requests_total{tenant=\"beta\"} 5"),
            std::string::npos);
  // Labeled series sharing one base share exactly one TYPE header.
  const std::string header = "# TYPE coursenav_requests_total counter";
  const size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
  // Histogram buckets merge the label with le.
  EXPECT_NE(
      text.find("coursenav_wait_us_bucket{tenant=\"alpha\",le=\"+Inf\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("coursenav_wait_us_count{tenant=\"alpha\"} 1"),
            std::string::npos);
}

TEST(LabeledMetricsTest, HostileLabelValuesEscapeAndRoundTrip) {
  const std::string hostile = "evil\"tenant\\with\nnewlines";
  const std::string escaped = obs::EscapePrometheusLabelValue(hostile);
  EXPECT_EQ(escaped, "evil\\\"tenant\\\\with\\nnewlines");
  EXPECT_EQ(obs::UnescapePrometheusLabelValue(escaped), hostile);

  // Rendered through the registry, the hostile value must stay on one line
  // and parse back to the original.
  MetricRegistry registry;
  registry.GetCounter(obs::LabeledMetricName("requests_total", "tenant",
                                             hostile))
      ->Increment();
  std::string text = obs::RenderPrometheus(registry);
  const std::string expected_series =
      "coursenav_requests_total{tenant=\"" + escaped + "\"} 1";
  EXPECT_NE(text.find(expected_series), std::string::npos) << text;
  // The raw newline never leaks into the exposition text: every line is a
  // comment, a series, or blank — count lines starting with the base name.
  size_t series_lines = 0;
  size_t at = 0;
  while ((at = text.find("coursenav_requests_total", at)) !=
         std::string::npos) {
    ++series_lines;
    at += 1;
  }
  EXPECT_EQ(series_lines, 2u);  // one TYPE header + one series line
}

TEST(LabeledMetricsTest, UnescapeKeepsUnknownEscapesVerbatim) {
  EXPECT_EQ(obs::UnescapePrometheusLabelValue("a\\tb"), "a\\tb");
  EXPECT_EQ(obs::UnescapePrometheusLabelValue("trailing\\"), "trailing\\");
}

// Satellite regression: the tracer's dropped-span count and the registry's
// interning-table size are exported as gauges so dashboards can alarm on
// truncated traces and label-cardinality growth.
TEST(ObservabilityHealthTest, DroppedSpansAndInterningAreGauges) {
  MetricRegistry registry;
  obs::PublishTracerHealth(17, registry);
  EXPECT_EQ(registry.GetGauge(obs::kMetricTraceDroppedSpans)->Value(), 17);
  // UpdateMax semantics: a lower publish never regresses the high-water.
  obs::PublishTracerHealth(5, registry);
  EXPECT_EQ(registry.GetGauge(obs::kMetricTraceDroppedSpans)->Value(), 17);

  registry.GetCounter("some_counter")->Increment();
  registry.GetHistogram("some_histogram")->Observe(1);
  obs::PublishRegistryHealth(registry);
  const int64_t interned =
      registry.GetGauge(obs::kMetricInternedNames)->Value();
  // dropped-spans gauge + counter + histogram at minimum; the
  // interned-names gauge itself may lag by one publish.
  EXPECT_GE(interned, 3);
  EXPECT_EQ(interned, static_cast<int64_t>(registry.InternedNameCount()) - 1);
}

TEST(MetricsJsonTest, SnapshotRendersCountersGaugesAndQuantiles) {
  MetricRegistry registry;
  registry.GetCounter("requests_total")->Increment(9);
  registry.GetGauge("depth")->Set(4);
  Histogram* histogram = registry.GetHistogram("latency_us");
  for (int i = 0; i < 90; ++i) histogram->Observe(10);
  for (int i = 0; i < 10; ++i) histogram->Observe(5000);

  JsonValue json = obs::MetricsToJson(registry.Snapshot());
  EXPECT_EQ(*json.Get("counters")->Get("requests_total")->GetInt(), 9);
  EXPECT_EQ(*json.Get("gauges")->Get("depth")->GetInt(), 4);
  const JsonValue latency = *json.Get("histograms")->Get("latency_us");
  EXPECT_EQ(*latency.Get("count")->GetInt(), 100);
  EXPECT_EQ(*latency.Get("sum")->GetInt(), 90 * 10 + 10 * 5000);
  // p50 lands in the bucket holding the 10us observations, p99 outside it.
  EXPECT_LE(*latency.Get("p50_us")->GetInt(), 16);
  EXPECT_GT(*latency.Get("p99_us")->GetInt(), 16);
}

TEST(HistogramQuantileTest, PicksBucketUpperBounds) {
  MetricRegistry registry;
  Histogram* histogram = registry.GetHistogram("h");
  EXPECT_EQ(obs::HistogramQuantile(registry.Snapshot()[0], 0.5), 0);
  for (int i = 0; i < 10; ++i) histogram->Observe(3);  // bucket < 4
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  EXPECT_EQ(obs::HistogramQuantile(snapshot[0], 0.5), 4);
  EXPECT_EQ(obs::HistogramQuantile(snapshot[0], 1.0), 4);
}

TEST(FlightRecorderTest, RingIsBoundedAndDumpsParseableJsonLines) {
  obs::FlightRecorderConfig config;
  config.capacity = 4;
  obs::FlightRecorder recorder(config);
  for (int i = 0; i < 10; ++i) {
    // Fields are move-assigned from fresh strings: at -O3, GCC 12 reports
    // a false -Wrestrict overlap when a string is assigned a literal here.
    obs::RecordedRequest record;
    record.trace_id = StrFormat("t%d", i);
    record.tenant = std::string("tenant");
    record.request_id = StrFormat("r%d", i);
    record.outcome = std::string(i % 2 == 0 ? "ok" : "timeout");
    record.queue_wait_ms = 1.5;
    record.service_ms = 2.5;
    recorder.Record(std::move(record));
  }
  EXPECT_EQ(recorder.total_recorded(), 10);
  EXPECT_EQ(recorder.non_ok_recorded(), 5);
  const std::vector<obs::RecordedRequest> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);  // ring evicted the oldest six
  EXPECT_EQ(snapshot.front().request_id, "r6");
  EXPECT_EQ(snapshot.back().request_id, "r9");

  const std::string dump = recorder.DumpJsonLines();
  size_t lines = 0;
  size_t start = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    Result<JsonValue> parsed = JsonValue::Parse(dump.substr(start, end - start));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->Has("request_id"));
    EXPECT_TRUE(parsed->Has("outcome"));
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 4u);
}

TEST(FlightRecorderTest, AutoDumpFiresOnceThenStaysQuiet) {
  obs::FlightRecorderConfig config;
  config.capacity = 8;
  config.quiet_seconds = 3600.0;  // nothing in-test ever re-arms it
  obs::FlightRecorder recorder(config);
  std::vector<std::string> dumps;
  recorder.SetAutoDumpSink(
      [&dumps](const std::string& dump) { dumps.push_back(dump); });

  obs::RecordedRequest ok;
  ok.request_id = "fine";
  ok.outcome = "ok";
  recorder.Record(std::move(ok));
  EXPECT_TRUE(dumps.empty());  // healthy traffic never dumps

  obs::RecordedRequest bad;
  bad.request_id = "first-bad";
  bad.outcome = "overloaded";
  recorder.Record(std::move(bad));
  ASSERT_EQ(dumps.size(), 1u);  // first trouble after quiet fires
  EXPECT_NE(dumps[0].find("first-bad"), std::string::npos);

  obs::RecordedRequest more;
  more.request_id = "second-bad";
  more.outcome = "timeout";
  recorder.Record(std::move(more));
  EXPECT_EQ(dumps.size(), 1u);  // within the quiet window: suppressed
  EXPECT_EQ(recorder.auto_dumps(), 1);
  EXPECT_EQ(recorder.non_ok_recorded(), 2);
}

TEST(FlightRecorderTest, ZeroQuietWindowDumpsEveryFailure) {
  obs::FlightRecorderConfig config;
  config.quiet_seconds = 0.0;
  obs::FlightRecorder recorder(config);
  int dumps = 0;
  recorder.SetAutoDumpSink([&dumps](const std::string&) { ++dumps; });
  for (int i = 0; i < 3; ++i) {
    obs::RecordedRequest bad;
    bad.request_id = "b" + std::to_string(i);
    bad.outcome = "failed";
    recorder.Record(std::move(bad));
  }
  EXPECT_EQ(dumps, 3);
}

/// The nine run-tally series, in ExplorationStats field order.
constexpr std::string_view kRunTallySeries[] = {
    obs::kMetricNodesCreated,   obs::kMetricEdgesCreated,
    obs::kMetricNodesExpanded,  obs::kMetricTerminalPaths,
    obs::kMetricGoalPaths,      obs::kMetricDeadEndPaths,
    obs::kMetricPrunedTime,     obs::kMetricPrunedAvailability,
    obs::kMetricBudgetChecks,
};

std::vector<int64_t> RunTallySeriesValues() {
  std::vector<int64_t> values;
  for (std::string_view name : kRunTallySeries) {
    values.push_back(obs::GlobalMetrics().GetCounter(name)->Value());
  }
  return values;
}

std::vector<int64_t> TallyValues(const ExplorationStats& stats) {
  return {stats.nodes_created,  stats.edges_created,
          stats.nodes_expanded, stats.terminal_paths,
          stats.goal_paths,     stats.dead_end_paths,
          stats.pruned_time,    stats.pruned_availability,
          stats.budget_checks};
}

/// Runs `run`, which returns the finished run's tallies, and expects every
/// run-tally series to move by exactly those tallies and the runs counter
/// by exactly one.
void ExpectPublishedExactly(const std::string& label,
                            const std::function<ExplorationStats()>& run) {
  SCOPED_TRACE(label);
  obs::Counter* runs = obs::GlobalMetrics().GetCounter(obs::kMetricRuns);
  const std::vector<int64_t> before = RunTallySeriesValues();
  const int64_t runs_before = runs->Value();
  const ExplorationStats tallies = run();
  const std::vector<int64_t> after = RunTallySeriesValues();
  const std::vector<int64_t> expected = TallyValues(tallies);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], expected[i]) << kRunTallySeries[i];
  }
  EXPECT_EQ(runs->Value() - runs_before, 1);
  EXPECT_GT(tallies.nodes_created, 0);
  EXPECT_GT(tallies.budget_checks, 0);
}

TEST(GlobalMetricsTest, FinishedRunsFoldIntoGlobalRegistry) {
  Figure3Fixture fix;
  Term fall12(Season::kFall, 2012);
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());

  for (int threads : {0, 4}) {
    ExpectPublishedExactly(
        "goal run, threads=" + std::to_string(threads), [&] {
          ExplorationOptions options;
          options.num_threads = threads;
          auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                                fix.FreshStudent(), fall12,
                                                **goal, options);
          EXPECT_TRUE(result.ok());
          EXPECT_GT(result->stats.pruned_availability, 0);
          return result->stats;
        });
  }

  ExpectPublishedExactly("ranked run", [&] {
    TimeRanking ranking;
    auto result =
        GenerateRankedPaths(fix.catalog, fix.schedule, fix.FreshStudent(),
                            fall12, **goal, ranking, 3, ExplorationOptions());
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result->paths.empty());
    return result->stats;
  });

#if COURSENAV_TRACING
  // A count visits each distinct status once: it creates it and checks the
  // budget before expanding it, and materializes no edge, expansion or
  // leaf. Its pruning tallies are the ones its stage spans report.
  ExpectPublishedExactly("goal count", [&] {
    obs::Tracer tracer;
    Result<CountingResult> counted = Status::Internal("not run");
    {
      obs::ScopedTracer install(&tracer);
      counted = CountGoalDrivenPaths(fix.catalog, fix.schedule,
                                     fix.FreshStudent(), fall12, **goal,
                                     ExplorationOptions());
    }
    EXPECT_TRUE(counted.ok());
    ExplorationStats tallies;
    tallies.nodes_created = counted->distinct_statuses;
    tallies.budget_checks = counted->distinct_statuses;
    for (const obs::SpanRecord& span : tracer.Spans()) {
      for (const obs::SpanAttribute& attribute : span.attributes) {
        if (attribute.key != "pruned") continue;
        if (span.name == obs::kSpanPruneTime) {
          tallies.pruned_time = attribute.int_value;
        } else if (span.name == obs::kSpanPruneAvailability) {
          tallies.pruned_availability = attribute.int_value;
        }
      }
    }
    EXPECT_GT(tallies.TotalPruned(), 0);
    return tallies;
  });
#endif  // COURSENAV_TRACING
}

}  // namespace
}  // namespace coursenav
