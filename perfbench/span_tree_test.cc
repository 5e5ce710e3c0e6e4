// Checks the span fold: children never add up to more than their parent,
// on hand-built timelines and on the program's own spans.

#include <cstdio>
#include <string>
#include <vector>

#include "data/brandeis_cs.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "span_tree.h"

namespace {

using coursenav::obs::SpanAttribute;
using coursenav::obs::SpanRecord;
using perfbench::FoldSpans;
using perfbench::SpanTree;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAILED: %s\n", what.c_str());
}

SpanRecord Span(int64_t id, int64_t parent, const std::string& name,
                int64_t start, int64_t duration, bool aggregate = false) {
  SpanRecord span;
  span.span_id = id;
  span.parent_id = parent;
  span.name = name;
  span.start_us = start;
  span.duration_us = duration;
  if (aggregate) span.attributes.push_back(SpanAttribute::Int("calls", 7));
  return span;
}

void SequentialChildren() {
  SpanTree tree;
  FoldSpans({Span(1, 0, "run", 0, 100), Span(2, 1, "a", 0, 30),
             Span(3, 1, "b", 30, 50)},
            &tree);
  Expect(tree.violations == 0, "sequential children fit their parent");
  Expect(tree.by_name["run"].self_us == 20, "self time is the uncovered part");
  Expect(tree.by_name["a"].self_us == 30, "a leaf's self time is its duration");
}

void OverlappingChildrenAreCaught() {
  SpanTree tree;
  FoldSpans({Span(1, 0, "run", 0, 10), Span(2, 1, "a", 0, 8),
             Span(3, 1, "b", 2, 8)},
            &tree);
  Expect(tree.violations == 1, "overlapping children exceed their parent");
  Expect(tree.by_name["run"].self_us == 0, "self time never goes negative");
}

void ReplayedIntervalsNestWhereTheyHappened() {
  // serve/request opens when a worker picks the request up; the clamp and
  // the admission wait, replayed as its children, happened before that.
  SpanTree tree;
  FoldSpans({Span(10, 0, "bench/request", 0, 300),
             Span(1, 10, "serve/request", 150, 120),
             Span(2, 1, "serve/clamp", 5, 1),
             Span(3, 1, "serve/admission_wait", 10, 140),
             Span(4, 1, "generate/goal", 160, 100)},
            &tree);
  Expect(tree.violations == 0, "replayed intervals are lifted");
  Expect(tree.by_name["serve/request"].self_us == 20,
         "serve/request keeps only its own children");
  Expect(tree.by_name["bench/request"].self_us == 300 - 120 - 1 - 140,
         "lifted spans count against the span that contains them");
}

void AggregatesNestInTheirStage() {
  // prune/* sum many samples taken inside expand/loop and are emitted
  // after it closes, as its siblings.
  SpanTree tree;
  FoldSpans({Span(1, 0, "generate/goal", 0, 100),
             Span(2, 1, "graph/construct", 0, 10),
             Span(3, 1, "expand/loop", 10, 80),
             Span(4, 1, "prune/time", 65, 30, true),
             Span(5, 1, "prune/availability", 55, 40, true)},
            &tree);
  Expect(tree.violations == 0, "aggregates nest in the stage they sampled");
  Expect(tree.by_name["expand/loop"].self_us == 10,
         "the stage's self time excludes its aggregates");
  Expect(tree.by_name["generate/goal"].self_us == 10,
         "aggregates are not counted twice");
}

void ProgramSpansFit() {
  coursenav::data::BrandeisDataset dataset =
      coursenav::data::BuildBrandeisDataset();
  coursenav::obs::Tracer tracer;
  {
    coursenav::obs::ScopedTracer install(&tracer);
    coursenav::obs::ScopedSpan root("bench/cell");
    for (coursenav::TaskType type :
         {coursenav::TaskType::kDeadlineDriven, coursenav::TaskType::kGoalDriven,
          coursenav::TaskType::kRanked}) {
      coursenav::ExplorationRequest request;
      request.start = coursenav::EnrollmentStatus{
          coursenav::data::StartTermForSpan(3), dataset.catalog.NewCourseSet()};
      request.end_term = coursenav::data::EvaluationEndTerm();
      request.type = type;
      if (type != coursenav::TaskType::kDeadlineDriven) {
        request.goal = dataset.cs_major;
      }
      if (type == coursenav::TaskType::kRanked) {
        request.ranking = std::make_shared<const coursenav::TimeRanking>();
      }
      auto response = coursenav::plan::Execute(dataset.catalog,
                                               dataset.schedule, request);
      Expect(response.ok(), "the traced exploration runs");
    }
  }
  SpanTree tree;
  FoldSpans(tracer.Spans(), &tree);
  Expect(tree.spans > 3, "the program recorded spans");
  Expect(tree.violations == 0, "the program's spans fit their parents");
  for (const std::string& note : tree.violation_notes) {
    std::printf("  %s\n", note.c_str());
  }
}

}  // namespace

int main() {
  SequentialChildren();
  OverlappingChildrenAreCaught();
  ReplayedIntervalsNestWhereTheyHappened();
  AggregatesNestInTheirStage();
  ProgramSpansFit();
  std::printf("%s\n", failures == 0 ? "span_tree_test: ok" : "span_tree_test: FAILED");
  return failures == 0 ? 0 : 1;
}
