#include "asks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "catalog/term.h"
#include "data/transcripts.h"
#include "util/json.h"

namespace perfbench {

using coursenav::JsonValue;
using coursenav::LearningPath;
using coursenav::TaskType;
using coursenav::Term;

namespace {

// The traffic mix. No public source says how students split their
// questions between the task types or how far ahead they ask, so these are
// assumptions (README.md). Horizons stay short so that each computed answer
// is interactive; the long asks and the paper batch cover longer horizons.
constexpr double kGoalShare = 0.3;
constexpr double kRankedShare = 0.3;  // the rest are deadline-driven
/// Semesters ahead a goal-driven or ranked ask looks, at most.
constexpr int kMaxHorizon = 2;
/// A ranked ask's top_k is uniform over [kMinTopK, kMinTopK + kTopKChoices).
constexpr int kMinTopK = 5;
constexpr int kTopKChoices = 16;
constexpr double kDeadlineMs = 2000.0;
/// A long ask's deadline, its cap on graph nodes, and the share of its
/// deadline the full answer may use before the ladder moves on (the
/// request's degradation time_fraction).
constexpr double kLongDeadlineMs = 100.0;
constexpr int64_t kLongMaxNodes = 30'000;
constexpr double kLongFullShare = 0.3;

}  // namespace

StudentPopulation::StudentPopulation(
    const coursenav::data::BrandeisDataset& dataset, int num_students,
    uint64_t seed)
    : dataset_(dataset) {
  // Entry terms span the part of the window from which the major is still
  // reachable by its end (the shortest path to the major is four semesters).
  const int entry_terms = dataset.last_term - dataset.first_term - 3;
  for (int entry = 0; entry < entry_terms; ++entry) {
    coursenav::data::TranscriptSimulationConfig config;
    config.num_students = (num_students + entry_terms - 1) / entry_terms;
    if (entry == 0) first_entry_size_ = config.num_students;
    config.seed = seed * 31 + static_cast<uint64_t>(entry);
    coursenav::EnrollmentStatus fresh{dataset.first_term.Plus(entry),
                                      dataset.catalog.NewCourseSet()};
    auto walks = coursenav::data::SimulateTranscripts(
        dataset.catalog, dataset.schedule, *dataset.cs_major, fresh,
        dataset.last_term, coursenav::ExplorationOptions{}, config);
    if (!walks.ok()) {
      std::fprintf(stderr, "transcript simulation failed: %s\n",
                   walks.status().ToString().c_str());
      std::exit(1);
    }
    for (LearningPath& walk : *walks) transcripts_.push_back(std::move(walk));
  }
  for (const std::string& code : dataset.core_codes) {
    if (!core_goal_.empty()) core_goal_ += " and ";
    core_goal_ += code;
  }
}

std::string StudentPopulation::RequestJson(const LearningPath& walk,
                                           int prefix, TaskType type,
                                           int horizon, int top_k,
                                           bool long_ask) const {
  const coursenav::Catalog& catalog = dataset_.catalog;
  coursenav::DynamicBitset completed = walk.start_completed();
  for (int step = 0; step < prefix; ++step) {
    completed |= walk.steps()[static_cast<size_t>(step)].selection;
  }
  const Term term = walk.start_term().Plus(prefix);

  JsonValue::Array codes;
  completed.ForEach([&](int id) {
    codes.push_back(JsonValue(
        catalog.course(static_cast<coursenav::CourseId>(id)).code));
  });
  JsonValue::Object start;
  start["term"] = JsonValue(term.ToString());
  start["completed"] = JsonValue(std::move(codes));

  JsonValue::Object request;
  request["start"] = JsonValue(std::move(start));
  request["end_term"] = JsonValue(term.Plus(horizon).ToString());
  request["type"] = JsonValue(std::string(coursenav::TaskTypeName(type)));
  if (type != TaskType::kDeadlineDriven) request["goal"] = JsonValue(core_goal_);
  if (type == TaskType::kRanked) {
    request["ranking"] = JsonValue("time");
    request["top_k"] = JsonValue(top_k);
  }
  if (long_ask) {
    JsonValue::Object limits;
    limits["max_nodes"] = JsonValue(kLongMaxNodes);
    JsonValue::Object options;
    options["limits"] = JsonValue(std::move(limits));
    request["options"] = JsonValue(std::move(options));
    JsonValue::Object degradation;
    degradation["time_fraction"] = JsonValue(kLongFullShare);
    request["degradation"] = JsonValue(std::move(degradation));
  }
  return JsonValue(std::move(request)).Dump();
}

Ask StudentPopulation::Draw(std::mt19937_64& rng, const AskMix& mix) const {
  Ask ask;
  ask.long_horizon = Uniform(rng) < mix.long_share;
  ask.student = static_cast<int>(rng() % transcripts_.size());

  TaskType type = TaskType::kDeadlineDriven;
  int horizon = 0;
  int prefix = 0;
  if (ask.long_horizon) {
    // A fresh Fall 2011 student asking about their first four semesters
    // with a cap on the answer's size: the full deadline-driven graph
    // (187,876 nodes) is past the cap, so the ladder falls to its
    // count-only rung, which answers from 9,935 statuses. The cap, not the
    // clock, cuts the full rung, so the work is the same on any machine.
    type = TaskType::kDeadlineDriven;
    ask.student = static_cast<int>(rng() % static_cast<uint64_t>(first_entry_size_));
    horizon = 4;
    ask.deadline_ms = kLongDeadlineMs;
  } else {
    const double u = Uniform(rng);
    type = u < kGoalShare                  ? TaskType::kGoalDriven
           : u < kGoalShare + kRankedShare ? TaskType::kRanked
                                           : TaskType::kDeadlineDriven;
    const int max_horizon = type == TaskType::kDeadlineDriven
                                ? mix.max_deadline_horizon
                                : kMaxHorizon;
    horizon = 1 + static_cast<int>(rng() % static_cast<uint64_t>(max_horizon));
    const int window = dataset_.last_term - walk(ask).start_term();
    const int last_prefix = std::min(walk(ask).Length(), window - horizon);
    prefix = static_cast<int>(rng() % static_cast<uint64_t>(last_prefix + 1));
    ask.deadline_ms = kDeadlineMs;
  }
  const int top_k = kMinTopK + static_cast<int>(rng() % kTopKChoices);
  ask.request_json =
      RequestJson(walk(ask), prefix, type, horizon, top_k, ask.long_horizon);
  return ask;
}

std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<size_t>(i)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int DrawIndex(std::mt19937_64& rng, const std::vector<double>& cdf) {
  const double u = Uniform(rng);
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<int>(it - cdf.begin());
}

}  // namespace perfbench
