#include "span_tree.h"

#include <unordered_map>
#include <utility>

#include "util/string_util.h"

namespace perfbench {

using coursenav::JsonValue;
using coursenav::obs::SpanAttribute;
using coursenav::obs::SpanRecord;

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

int64_t EndUs(const SpanRecord& span) {
  return span.start_us + span.duration_us;
}

bool Contains(const SpanRecord& outer, const SpanRecord& inner) {
  return outer.start_us <= inner.start_us && EndUs(inner) <= EndUs(outer);
}

bool IsAggregate(const SpanRecord& span) {
  for (const SpanAttribute& attribute : span.attributes) {
    if (attribute.key == "calls") return true;
  }
  return false;
}

int64_t IntField(const JsonValue& object, std::string_view key) {
  auto value = object.Get(key);
  if (!value.ok()) return 0;
  auto number = value->GetInt();
  return number.ok() ? *number : 0;
}

}  // namespace

void FoldSpans(const std::vector<SpanRecord>& spans, SpanTree* tree) {
  const size_t n = spans.size();
  std::unordered_map<int64_t, size_t> by_id;
  for (size_t i = 0; i < n; ++i) by_id[spans[i].span_id] = i;
  std::vector<size_t> linked(n, kNone);
  for (size_t i = 0; i < n; ++i) {
    auto it = by_id.find(spans[i].parent_id);
    if (it != by_id.end() && it->second != i) linked[i] = it->second;
  }

  // Nest each span under the nearest linked ancestor that contains it.
  std::vector<size_t> parent(n, kNone);
  for (size_t i = 0; i < n; ++i) {
    size_t p = linked[i];
    while (p != kNone && !Contains(spans[p], spans[i])) p = linked[p];
    parent[i] = p;
  }

  // Aggregates move under the sibling interval that closed last before them.
  std::unordered_map<size_t, std::vector<size_t>> interval_children;
  for (size_t i = 0; i < n; ++i) {
    if (!IsAggregate(spans[i])) interval_children[parent[i]].push_back(i);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!IsAggregate(spans[i])) continue;
    size_t best = kNone;
    for (size_t sibling : interval_children[parent[i]]) {
      if (EndUs(spans[sibling]) > EndUs(spans[i])) continue;
      if (best == kNone || EndUs(spans[sibling]) > EndUs(spans[best])) {
        best = sibling;
      }
    }
    if (best != kNone) parent[i] = best;
  }

  std::vector<int64_t> children_us(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (parent[i] != kNone) children_us[parent[i]] += spans[i].duration_us;
  }
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& span = spans[i];
    int64_t covered = children_us[i];
    if (covered > span.duration_us) {
      ++tree->violations;
      tree->violation_notes.push_back(coursenav::StrFormat(
          "%s: %lld us of children inside %lld us", span.name.c_str(),
          static_cast<long long>(covered),
          static_cast<long long>(span.duration_us)));
      covered = span.duration_us;
    }
    SpanTotals& totals = tree->by_name[span.name];
    ++totals.count;
    totals.inclusive_us += span.duration_us;
    totals.self_us += span.duration_us - covered;
  }
  tree->spans += static_cast<int64_t>(n);
}

std::vector<SpanRecord> SpansFromJson(const JsonValue& trace) {
  std::vector<SpanRecord> spans;
  if (!trace.is_array()) return spans;
  for (const JsonValue& item : trace.array()) {
    SpanRecord span;
    span.span_id = IntField(item, "span_id");
    span.parent_id = IntField(item, "parent_id");
    span.start_us = IntField(item, "start_us");
    span.duration_us = IntField(item, "dur_us");
    if (auto name = item.Get("name"); name.ok()) {
      span.name = name->GetString().value_or("");
    }
    if (auto attrs = item.Get("attrs"); attrs.ok() && attrs->is_object()) {
      for (const auto& [key, value] : attrs->object()) {
        if (value.is_number()) {
          span.attributes.push_back(
              SpanAttribute::Int(key, value.GetInt().value_or(0)));
        }
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

void Graft(std::vector<SpanRecord>* spans, int64_t offset_us,
           int64_t parent_id, int64_t* next_id) {
  std::unordered_map<int64_t, int64_t> renumbered;
  for (SpanRecord& span : *spans) renumbered[span.span_id] = (*next_id)++;
  for (SpanRecord& span : *spans) {
    span.span_id = renumbered[span.span_id];
    auto it = renumbered.find(span.parent_id);
    span.parent_id = it != renumbered.end() ? it->second : parent_id;
    span.start_us += offset_us;
  }
}

}  // namespace perfbench
