#ifndef PERFBENCH_SPAN_TREE_H_
#define PERFBENCH_SPAN_TREE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"

namespace perfbench {

/// Inclusive and self time of every span of one name, summed over a trace.
struct SpanTotals {
  int64_t count = 0;
  int64_t inclusive_us = 0;
  int64_t self_us = 0;
};

/// Spans folded into a tree by parent link, aggregated by name.
struct SpanTree {
  std::map<std::string, SpanTotals> by_name;
  int64_t spans = 0;
  /// Spans whose children add up to more than their own duration; each is
  /// also described in `violation_notes`. A sound trace has none.
  int64_t violations = 0;
  std::vector<std::string> violation_notes;
};

/// Folds the spans of one timeline into `tree`, adding to what is there.
///
/// Two program conventions decide where a span nests, beyond its parent
/// link:
///  - A span whose interval lies outside its linked parent's is nested
///    under the nearest ancestor that contains it. The server replays the
///    clamp and admission-wait intervals, which happened before a worker
///    opened serve/request, as children of serve/request.
///  - An aggregate span (one carrying a `calls` attribute: the summed
///    duration of many short samples, emitted when its stage ends) is nested
///    under the sibling that closed last before it was emitted, which is the
///    stage the samples were taken in.
/// Self time is a span's duration minus that of its children.
void FoldSpans(const std::vector<coursenav::obs::SpanRecord>& spans,
               SpanTree* tree);

/// Parses the span array of a served response's `trace` field.
std::vector<coursenav::obs::SpanRecord> SpansFromJson(
    const coursenav::JsonValue& trace);

/// Moves a timeline of spans onto another: every start is shifted by
/// `offset_us`, ids are renumbered from `*next_id`, and roots are parented
/// under `parent_id`.
void Graft(std::vector<coursenav::obs::SpanRecord>* spans, int64_t offset_us,
           int64_t parent_id, int64_t* next_id);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TREE_H_
