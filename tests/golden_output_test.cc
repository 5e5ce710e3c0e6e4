// Golden outputs of every expansion driver. The equivalence suites compare
// two code paths with each other (facade vs pipeline, serial vs parallel);
// this suite compares each driver with its own recorded output, so a change
// that every path shares still shows. Per case it pins a 64-bit FNV-1a hash
// of the JSON export (the graph, or the ranked paths), the stats JSON with
// `runtime_seconds` zeroed, and the termination status; per count, the
// totals or the error text.
//
// On a mismatch the failure message prints the actual row in the table's
// initializer form, so an intended output change is re-pinned by pasting it.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schedule_history.h"
#include "core/counting.h"
#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
#include "data/brandeis_cs.h"
#include "expr/parser.h"
#include "graph/export.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

struct GoldenRun {
  const char* name;
  uint64_t export_hash;
  const char* stats;
  const char* termination;
};

// clang-format off
const GoldenRun kGoldenRuns[] = {
    {"fig3-deadline", 0x872938684e743e63ull,
     "{\"dead_end_paths\":1,\"edges_created\":8,\"goal_paths\":2,\"nodes_created\":9,\"nodes_expanded\":9,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":3}",
     "OK"},
    {"fig3-goal", 0xa9987831898f52a0ull,
     "{\"dead_end_paths\":1,\"edges_created\":6,\"goal_paths\":2,\"nodes_created\":7,\"nodes_expanded\":7,\"pruned_availability\":1,\"pruned_time\":0,\"pruned_total\":1,\"runtime_seconds\":0,\"terminal_paths\":3}",
     "OK"},
    {"fig3-ranked", 0x111a5690a9657c4cull,
     "{\"dead_end_paths\":1,\"edges_created\":6,\"goal_paths\":2,\"nodes_created\":7,\"nodes_expanded\":7,\"pruned_availability\":1,\"pruned_time\":0,\"pruned_total\":1,\"runtime_seconds\":0,\"terminal_paths\":3}",
     "OK"},
    {"fig3-deadline-nodes1", 0x05479ff2897d455full,
     "{\"dead_end_paths\":0,\"edges_created\":0,\"goal_paths\":0,\"nodes_created\":1,\"nodes_expanded\":0,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 1 reached"},
    {"fig3-goal-nodes1", 0x05479ff2897d455full,
     "{\"dead_end_paths\":0,\"edges_created\":0,\"goal_paths\":0,\"nodes_created\":1,\"nodes_expanded\":0,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 1 reached"},
    {"fig3-ranked-nodes1", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":0,\"goal_paths\":0,\"nodes_created\":1,\"nodes_expanded\":0,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 1 reached"},
    {"fig3-deadline-nodes2", 0x3be415e714cc494full,
     "{\"dead_end_paths\":0,\"edges_created\":1,\"goal_paths\":0,\"nodes_created\":2,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 2 reached"},
    {"fig3-goal-nodes2", 0x3be415e714cc494full,
     "{\"dead_end_paths\":0,\"edges_created\":1,\"goal_paths\":0,\"nodes_created\":2,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 2 reached"},
    {"fig3-ranked-nodes2", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":1,\"goal_paths\":0,\"nodes_created\":2,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 2 reached"},
    {"fig3-deadline-nodes3", 0x2edd45dfb34cfd0bull,
     "{\"dead_end_paths\":0,\"edges_created\":2,\"goal_paths\":0,\"nodes_created\":3,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 3 reached"},
    {"fig3-goal-nodes3", 0x2edd45dfb34cfd0bull,
     "{\"dead_end_paths\":0,\"edges_created\":2,\"goal_paths\":0,\"nodes_created\":3,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 3 reached"},
    {"fig3-ranked-nodes3", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":2,\"goal_paths\":0,\"nodes_created\":3,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 3 reached"},
    {"fig3-deadline-nodes4", 0x07d8ee8c6a025a73ull,
     "{\"dead_end_paths\":0,\"edges_created\":3,\"goal_paths\":0,\"nodes_created\":4,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 4 reached"},
    {"fig3-goal-nodes4", 0x07d8ee8c6a025a73ull,
     "{\"dead_end_paths\":0,\"edges_created\":3,\"goal_paths\":0,\"nodes_created\":4,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 4 reached"},
    {"fig3-ranked-nodes4", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":3,\"goal_paths\":0,\"nodes_created\":4,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 4 reached"},
    {"fig3-deadline-nodes5", 0x620d4cca97c6114full,
     "{\"dead_end_paths\":0,\"edges_created\":4,\"goal_paths\":0,\"nodes_created\":5,\"nodes_expanded\":2,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 5 reached"},
    {"fig3-goal-nodes5", 0x620d4cca97c6114full,
     "{\"dead_end_paths\":0,\"edges_created\":4,\"goal_paths\":0,\"nodes_created\":5,\"nodes_expanded\":2,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 5 reached"},
    {"fig3-ranked-nodes5", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":1,\"edges_created\":4,\"goal_paths\":0,\"nodes_created\":5,\"nodes_expanded\":4,\"pruned_availability\":1,\"pruned_time\":0,\"pruned_total\":1,\"runtime_seconds\":0,\"terminal_paths\":1}",
     "ResourceExhausted: node budget of 5 reached"},
    {"fig3-deadline-nodes6", 0x0c2e70e7ca9c6d7eull,
     "{\"dead_end_paths\":1,\"edges_created\":5,\"goal_paths\":0,\"nodes_created\":6,\"nodes_expanded\":4,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":1}",
     "ResourceExhausted: node budget of 6 reached"},
    {"fig3-goal-nodes6", 0x4492480f0a0a47caull,
     "{\"dead_end_paths\":1,\"edges_created\":5,\"goal_paths\":1,\"nodes_created\":6,\"nodes_expanded\":5,\"pruned_availability\":1,\"pruned_time\":0,\"pruned_total\":1,\"runtime_seconds\":0,\"terminal_paths\":2}",
     "ResourceExhausted: node budget of 6 reached"},
    {"fig3-ranked-nodes6", 0x33fad27193acad3dull,
     "{\"dead_end_paths\":1,\"edges_created\":5,\"goal_paths\":1,\"nodes_created\":6,\"nodes_expanded\":5,\"pruned_availability\":1,\"pruned_time\":0,\"pruned_total\":1,\"runtime_seconds\":0,\"terminal_paths\":2}",
     "ResourceExhausted: node budget of 6 reached"},
    {"deadline-3sem-t0", 0x7cdca80eddcc8cc4ull,
     "{\"dead_end_paths\":0,\"edges_created\":4383,\"goal_paths\":4208,\"nodes_created\":4384,\"nodes_expanded\":4384,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":4208}",
     "OK"},
    {"deadline-4sem-t0", 0xc2052341702a4abaull,
     "{\"dead_end_paths\":0,\"edges_created\":187875,\"goal_paths\":178251,\"nodes_created\":187876,\"nodes_expanded\":187876,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":178251}",
     "OK"},
    {"goal-4sem-t0", 0xda7b4fa13c214321ull,
     "{\"dead_end_paths\":182,\"edges_created\":655,\"goal_paths\":342,\"nodes_created\":656,\"nodes_expanded\":656,\"pruned_availability\":376,\"pruned_time\":4550,\"pruned_total\":4926,\"runtime_seconds\":0,\"terminal_paths\":524}",
     "OK"},
    {"deadline-3sem-t4", 0x7cdca80eddcc8cc4ull,
     "{\"dead_end_paths\":0,\"edges_created\":4383,\"goal_paths\":4208,\"nodes_created\":4384,\"nodes_expanded\":4384,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":4208}",
     "OK"},
    {"deadline-4sem-t4", 0xc2052341702a4abaull,
     "{\"dead_end_paths\":0,\"edges_created\":187875,\"goal_paths\":178251,\"nodes_created\":187876,\"nodes_expanded\":187876,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":178251}",
     "OK"},
    {"goal-4sem-t4", 0xda7b4fa13c214321ull,
     "{\"dead_end_paths\":182,\"edges_created\":655,\"goal_paths\":342,\"nodes_created\":656,\"nodes_expanded\":656,\"pruned_availability\":376,\"pruned_time\":4550,\"pruned_total\":4926,\"runtime_seconds\":0,\"terminal_paths\":524}",
     "OK"},
    {"goal-4sem-no-time", 0xcf1f536563ea6b6bull,
     "{\"dead_end_paths\":1463,\"edges_created\":1999,\"goal_paths\":342,\"nodes_created\":2000,\"nodes_expanded\":2000,\"pruned_availability\":33130,\"pruned_time\":0,\"pruned_total\":33130,\"runtime_seconds\":0,\"terminal_paths\":1805}",
     "OK"},
    {"goal-4sem-no-availability", 0xfa29c09f5db3166dull,
     "{\"dead_end_paths\":521,\"edges_created\":1031,\"goal_paths\":342,\"nodes_created\":1032,\"nodes_expanded\":1032,\"pruned_availability\":0,\"pruned_time\":9383,\"pruned_total\":9383,\"runtime_seconds\":0,\"terminal_paths\":863}",
     "OK"},
    {"goal-4sem-no-cache", 0xda7b4fa13c214321ull,
     "{\"dead_end_paths\":182,\"edges_created\":655,\"goal_paths\":342,\"nodes_created\":656,\"nodes_expanded\":656,\"pruned_availability\":376,\"pruned_time\":4550,\"pruned_total\":4926,\"runtime_seconds\":0,\"terminal_paths\":524}",
     "OK"},
    {"goal-4sem-no-pruning", 0x77daafe8e1b4dca3ull,
     "{\"dead_end_paths\":177909,\"edges_created\":187875,\"goal_paths\":342,\"nodes_created\":187876,\"nodes_expanded\":187876,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":178251}",
     "OK"},
    {"goal-4sem-voluntary-skip", 0xda7b4fa13c214321ull,
     "{\"dead_end_paths\":182,\"edges_created\":655,\"goal_paths\":342,\"nodes_created\":656,\"nodes_expanded\":656,\"pruned_availability\":376,\"pruned_time\":4864,\"pruned_total\":5240,\"runtime_seconds\":0,\"terminal_paths\":524}",
     "OK"},
    {"goal-4sem-m2", 0xdabde4458f26e1f8ull,
     "{\"dead_end_paths\":1,\"edges_created\":0,\"goal_paths\":0,\"nodes_created\":1,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":10,\"pruned_total\":10,\"runtime_seconds\":0,\"terminal_paths\":1}",
     "OK"},
    {"goal-4sem-non-monotone", 0x3056f5149b2ba881ull,
     "{\"dead_end_paths\":1331,\"edges_created\":28674,\"goal_paths\":24312,\"nodes_created\":28675,\"nodes_expanded\":28675,\"pruned_availability\":0,\"pruned_time\":50905,\"pruned_total\":50905,\"runtime_seconds\":0,\"terminal_paths\":25643}",
     "OK"},
    {"deadline-3sem-avoid", 0xfffb237e8b202b2full,
     "{\"dead_end_paths\":0,\"edges_created\":1235,\"goal_paths\":1173,\"nodes_created\":1236,\"nodes_expanded\":1236,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":1173}",
     "OK"},
    {"goal-4sem-avoid-t0", 0x97dfcf521f4a44a5ull,
     "{\"dead_end_paths\":40,\"edges_created\":151,\"goal_paths\":72,\"nodes_created\":152,\"nodes_expanded\":152,\"pruned_availability\":64,\"pruned_time\":908,\"pruned_total\":972,\"runtime_seconds\":0,\"terminal_paths\":112}",
     "OK"},
    {"goal-4sem-avoid-t4", 0x97dfcf521f4a44a5ull,
     "{\"dead_end_paths\":40,\"edges_created\":151,\"goal_paths\":72,\"nodes_created\":152,\"nodes_expanded\":152,\"pruned_availability\":64,\"pruned_time\":908,\"pruned_total\":972,\"runtime_seconds\":0,\"terminal_paths\":112}",
     "OK"},
    {"ranked-5sem-time-k10", 0x1a6db161ba51ac55ull,
     "{\"dead_end_paths\":69459,\"edges_created\":472513,\"goal_paths\":10,\"nodes_created\":472514,\"nodes_expanded\":128138,\"pruned_availability\":290715,\"pruned_time\":1228374,\"pruned_total\":1519089,\"runtime_seconds\":0,\"terminal_paths\":69469}",
     "OK"},
    {"ranked-6sem-time-k100", 0x2a9e9ee55879ca86ull,
     "{\"dead_end_paths\":0,\"edges_created\":15676,\"goal_paths\":100,\"nodes_created\":15677,\"nodes_expanded\":6263,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":100}",
     "OK"},
    {"ranked-5sem-workload-k10", 0x9ff5af9fd1d44639ull,
     "{\"dead_end_paths\":198279,\"edges_created\":342613,\"goal_paths\":10,\"nodes_created\":342614,\"nodes_expanded\":342614,\"pruned_availability\":660477,\"pruned_time\":4390152,\"pruned_total\":5050629,\"runtime_seconds\":0,\"terminal_paths\":198289}",
     "OK"},
    {"ranked-5sem-bottleneck-k20", 0xc571e4d83f06fa2aull,
     "{\"dead_end_paths\":5964,\"edges_created\":9070,\"goal_paths\":20,\"nodes_created\":9071,\"nodes_expanded\":9031,\"pruned_availability\":38332,\"pruned_time\":120359,\"pruned_total\":158691,\"runtime_seconds\":0,\"terminal_paths\":5984}",
     "OK"},
    {"ranked-5sem-reliability-k10", 0xea9a28d1b64ead9cull,
     "{\"dead_end_paths\":25570,\"edges_created\":95621,\"goal_paths\":10,\"nodes_created\":95622,\"nodes_expanded\":46147,\"pruned_availability\":173207,\"pruned_time\":523861,\"pruned_total\":697068,\"runtime_seconds\":0,\"terminal_paths\":25580}",
     "OK"},
    {"deadline-4sem-nodes2", 0x11178fa90ee50d54ull,
     "{\"dead_end_paths\":0,\"edges_created\":1,\"goal_paths\":0,\"nodes_created\":2,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 2 reached"},
    {"goal-5sem-nodes2", 0x1afd6b137da9d6d8ull,
     "{\"dead_end_paths\":0,\"edges_created\":1,\"goal_paths\":0,\"nodes_created\":2,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 2 reached"},
    {"ranked-5sem-nodes2", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":1,\"goal_paths\":0,\"nodes_created\":2,\"nodes_expanded\":1,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 2 reached"},
    {"deadline-4sem-nodes65", 0xa70bbf01b6450df7ull,
     "{\"dead_end_paths\":0,\"edges_created\":64,\"goal_paths\":28,\"nodes_created\":65,\"nodes_expanded\":34,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":28}",
     "ResourceExhausted: node budget of 65 reached"},
    {"goal-5sem-nodes65", 0xd90c3bf45d494238ull,
     "{\"dead_end_paths\":4,\"edges_created\":64,\"goal_paths\":0,\"nodes_created\":65,\"nodes_expanded\":9,\"pruned_availability\":13,\"pruned_time\":13,\"pruned_total\":26,\"runtime_seconds\":0,\"terminal_paths\":4}",
     "ResourceExhausted: node budget of 65 reached"},
    {"ranked-5sem-nodes65", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":64,\"goal_paths\":0,\"nodes_created\":65,\"nodes_expanded\":3,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 65 reached"},
    {"deadline-4sem-nodes1000", 0x3b60c3b9b3434777ull,
     "{\"dead_end_paths\":0,\"edges_created\":999,\"goal_paths\":845,\"nodes_created\":1000,\"nodes_expanded\":935,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":845}",
     "ResourceExhausted: node budget of 1000 reached"},
    {"goal-5sem-nodes1000", 0x82b55db802c567fdull,
     "{\"dead_end_paths\":295,\"edges_created\":999,\"goal_paths\":503,\"nodes_created\":1000,\"nodes_expanded\":969,\"pruned_availability\":715,\"pruned_time\":3074,\"pruned_total\":3789,\"runtime_seconds\":0,\"terminal_paths\":798}",
     "ResourceExhausted: node budget of 1000 reached"},
    {"ranked-5sem-nodes1000", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":999,\"goal_paths\":0,\"nodes_created\":1000,\"nodes_expanded\":15,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: node budget of 1000 reached"},
    {"goal-5sem-memory65536", 0x0a9adaec95ef8916ull,
     "{\"dead_end_paths\":308,\"edges_created\":1042,\"goal_paths\":514,\"nodes_created\":1043,\"nodes_expanded\":999,\"pruned_availability\":726,\"pruned_time\":3172,\"pruned_total\":3898,\"runtime_seconds\":0,\"terminal_paths\":822}",
     "ResourceExhausted: memory budget of 65536 bytes reached"},
    {"goal-5sem-memory1048576", 0xd152cd7560915394ull,
     "{\"dead_end_paths\":3880,\"edges_created\":16383,\"goal_paths\":9439,\"nodes_created\":16384,\"nodes_expanded\":16253,\"pruned_availability\":11908,\"pruned_time\":48010,\"pruned_total\":59918,\"runtime_seconds\":0,\"terminal_paths\":13319}",
     "ResourceExhausted: memory budget of 1048576 bytes reached"},
    {"ranked-5sem-memory65536", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":670,\"goal_paths\":0,\"nodes_created\":671,\"nodes_expanded\":9,\"pruned_availability\":0,\"pruned_time\":0,\"pruned_total\":0,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: memory budget of 65536 bytes reached"},
    {"ranked-5sem-memory1048576", 0x09612b07b5ecb5a5ull,
     "{\"dead_end_paths\":0,\"edges_created\":3925,\"goal_paths\":0,\"nodes_created\":3926,\"nodes_expanded\":1058,\"pruned_availability\":28030,\"pruned_time\":0,\"pruned_total\":28030,\"runtime_seconds\":0,\"terminal_paths\":0}",
     "ResourceExhausted: memory budget of 1048576 bytes reached"},
};
// clang-format on

struct GoldenCount {
  const char* name;
  uint64_t total_paths;
  uint64_t goal_paths;
  int64_t distinct_statuses;
  const char* error;  // "" for a count that succeeded
};

// clang-format off
const GoldenCount kGoldenCounts[] = {
    {"count-deadline-3sem", 4208, 4208, 639, ""},
    {"count-deadline-4sem", 178251, 178251, 9935, ""},
    {"count-deadline-5sem", 21095449, 21095449, 1033700, ""},
    {"count-goal-4sem", 524, 342, 348, ""},
    {"count-goal-5sem", 1079711, 861717, 153341, ""},
    {"count-goal-5sem-voluntary-skip", 1081406, 862781, 153344, ""},
    {"count-goal-5sem-cap1000", 0, 0, 0, "ResourceExhausted: status budget of 1000 exceeded while counting"},
};
// clang-format on

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string StatsJson(ExplorationStats stats) {
  stats.runtime_seconds = 0.0;
  return stats.ToJson().Dump();
}

/// Escapes `"` so a JSON string pastes into a C++ string literal.
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void ExpectRun(const std::string& name, const std::string& export_json,
               const ExplorationStats& stats, const Status& termination) {
  const uint64_t hash = Fnv1a(export_json);
  const std::string stats_json = StatsJson(stats);
  const std::string status = termination.ToString();
  SCOPED_TRACE(StrFormat(
      "actual row:\n    {%s, 0x%016llxull,\n     %s,\n     %s},",
      Quoted(name).c_str(), static_cast<unsigned long long>(hash),
      Quoted(stats_json).c_str(), Quoted(status).c_str()));
  for (const GoldenRun& golden : kGoldenRuns) {
    if (name != golden.name) continue;
    EXPECT_EQ(hash, golden.export_hash) << name << ": export bytes changed";
    EXPECT_EQ(stats_json, golden.stats) << name;
    EXPECT_EQ(status, golden.termination) << name;
    return;
  }
  ADD_FAILURE() << "no golden row named " << name;
}

/// `avoid` is the run's avoid set, from which (with the catalog and the
/// schedule) the export derives each status's options.
void ExpectGraph(const std::string& name, const Catalog& catalog,
                 const OfferingSchedule& schedule,
                 const Result<GenerationResult>& result,
                 const std::optional<DynamicBitset>& avoid = std::nullopt) {
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  ExpectRun(name,
            LearningGraphToJson(result->graph, catalog, schedule, avoid).Dump(),
            result->stats, result->termination);
}

void ExpectPaths(const std::string& name, const Catalog& catalog,
                 const Result<RankedResult>& result) {
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  ExpectRun(name, LearningPathsToJson(result->paths, catalog).Dump(),
            result->stats, result->termination);
}

void ExpectCount(const std::string& name,
                 const Result<CountingResult>& result) {
  const uint64_t total = result.ok() ? result->total_paths : 0;
  const uint64_t goal = result.ok() ? result->goal_paths : 0;
  const int64_t distinct = result.ok() ? result->distinct_statuses : 0;
  const std::string error = result.ok() ? "" : result.status().ToString();
  SCOPED_TRACE(StrFormat("actual row:\n    {%s, %llu, %llu, %lld, %s},",
                         Quoted(name).c_str(),
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(goal),
                         static_cast<long long>(distinct),
                         Quoted(error).c_str()));
  for (const GoldenCount& golden : kGoldenCounts) {
    if (name != golden.name) continue;
    EXPECT_EQ(total, golden.total_paths) << name;
    EXPECT_EQ(goal, golden.goal_paths) << name;
    EXPECT_EQ(distinct, golden.distinct_statuses) << name;
    EXPECT_EQ(error, golden.error) << name;
    return;
  }
  ADD_FAILURE() << "no golden count named " << name;
}

TEST(GoldenOutputTest, Figure3) {
  testing_util::Figure3Fixture fix;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  TimeRanking time;
  for (int max_nodes = 0; max_nodes <= 6; ++max_nodes) {
    ExplorationOptions options;
    options.limits.max_nodes = max_nodes;
    const std::string suffix =
        max_nodes == 0 ? "" : StrFormat("-nodes%d", max_nodes);
    ExpectGraph("fig3-deadline" + suffix, fix.catalog, fix.schedule,
                GenerateDeadlineDrivenPaths(fix.catalog, fix.schedule,
                                            fix.FreshStudent(), fix.spring13,
                                            options));
    ExpectGraph("fig3-goal" + suffix, fix.catalog, fix.schedule,
                GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        **goal, options));
    ExpectPaths("fig3-ranked" + suffix, fix.catalog,
                GenerateRankedPaths(fix.catalog, fix.schedule,
                                    fix.FreshStudent(), fix.spring13, **goal,
                                    time, 3, options));
  }

  // The ranked search creates only children it can still pop, so six
  // nodes already reach the cheapest goal: the complete run's first path.
  ExplorationOptions six;
  six.limits.max_nodes = 6;
  auto budgeted = GenerateRankedPaths(fix.catalog, fix.schedule,
                                      fix.FreshStudent(), fix.spring13, **goal,
                                      time, 3, six);
  auto complete = GenerateRankedPaths(fix.catalog, fix.schedule,
                                      fix.FreshStudent(), fix.spring13, **goal,
                                      time, 3, ExplorationOptions{});
  ASSERT_TRUE(budgeted.ok() && complete.ok());
  ASSERT_EQ(budgeted->paths.size(), 1u);
  ASSERT_FALSE(complete->paths.empty());
  EXPECT_EQ(budgeted->paths[0], complete->paths[0]);
  EXPECT_EQ(budgeted->paths[0].cost(), complete->paths[0].cost());
}

class GoldenBrandeisTest : public ::testing::Test {
 protected:
  /// Built once per process and shared by the suite's tests.
  static const data::BrandeisDataset& dataset() {
    static const data::BrandeisDataset brandeis =
        data::BuildBrandeisDataset();
    return brandeis;
  }

  static const Catalog& catalog() { return dataset().catalog; }
  static const OfferingSchedule& schedule() { return dataset().schedule; }

  static EnrollmentStatus Start(int span) {
    return {data::StartTermForSpan(span), dataset().catalog.NewCourseSet()};
  }

  static Result<GenerationResult> Deadline(int span,
                                           const ExplorationOptions& options) {
    return GenerateDeadlineDrivenPaths(dataset().catalog, dataset().schedule,
                                       Start(span), data::EvaluationEndTerm(),
                                       options);
  }

  static Result<GenerationResult> Goal(int span,
                                       const ExplorationOptions& options,
                                       const GoalDrivenConfig& config = {},
                                       const coursenav::Goal* goal = nullptr) {
    return GenerateGoalDrivenPaths(
        dataset().catalog, dataset().schedule, Start(span),
        data::EvaluationEndTerm(),
        goal != nullptr ? *goal : *dataset().cs_major, options, config);
  }

  static Result<RankedResult> Ranked(int span, const RankingFunction& ranking,
                                     int k,
                                     const ExplorationOptions& options) {
    return GenerateRankedPaths(dataset().catalog, dataset().schedule,
                               Start(span), data::EvaluationEndTerm(),
                               *dataset().cs_major, ranking, k, options);
  }

  static Result<CountingResult> Count(int span, bool goal,
                                      const ExplorationOptions& options) {
    return goal ? CountGoalDrivenPaths(dataset().catalog, dataset().schedule,
                                       Start(span), data::EvaluationEndTerm(),
                                       *dataset().cs_major, options)
                : CountDeadlineDrivenPaths(dataset().catalog,
                                           dataset().schedule, Start(span),
                                           data::EvaluationEndTerm(),
                                           options);
  }
};

TEST_F(GoldenBrandeisTest, CompleteRunsAtZeroAndFourThreads) {
  for (int threads : {0, 4}) {
    ExplorationOptions options;
    options.num_threads = threads;
    const std::string suffix = StrFormat("-t%d", threads);
    ExpectGraph("deadline-3sem" + suffix, catalog(), schedule(),
                Deadline(3, options));
    ExpectGraph("goal-4sem" + suffix, catalog(), schedule(), Goal(4, options));
  }
}

// The 187,876-node graphs, kept in one test: each JSON export peaks near
// 1 GiB (several under sanitizers), so they never run side by side.
TEST_F(GoldenBrandeisTest, LargeGraphs) {
  for (int threads : {0, 4}) {
    ExplorationOptions options;
    options.num_threads = threads;
    ExpectGraph(StrFormat("deadline-4sem-t%d", threads), catalog(), schedule(),
                Deadline(4, options));
  }
  GoalDrivenConfig config;
  config.enable_time_pruning = false;
  config.enable_availability_pruning = false;
  ExpectGraph("goal-4sem-no-pruning", catalog(), schedule(),
              Goal(4, ExplorationOptions{}, config));
}

TEST_F(GoldenBrandeisTest, GoalConfigurations) {
  ExplorationOptions options;
  GoalDrivenConfig config;
  config.enable_time_pruning = false;
  ExpectGraph("goal-4sem-no-time", catalog(), schedule(),
              Goal(4, options, config));
  config = {};
  config.enable_availability_pruning = false;
  ExpectGraph("goal-4sem-no-availability", catalog(), schedule(),
              Goal(4, options, config));
  config = {};
  config.cache_availability_checks = false;
  ExpectGraph("goal-4sem-no-cache", catalog(), schedule(),
              Goal(4, options, config));

  ExplorationOptions skip;
  skip.allow_voluntary_skip = true;
  ExpectGraph("goal-4sem-voluntary-skip", catalog(), schedule(), Goal(4, skip));
  ExplorationOptions two;
  two.max_courses_per_term = 2;
  ExpectGraph("goal-4sem-m2", catalog(), schedule(), Goal(4, two));

  auto parsed = expr::ParseBoolExpr(
      "(COSI11A and COSI29A and not COSI2A) or "
      "(COSI21A and COSI21B and COSI12B)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto non_monotone = ExprGoal::Create(*parsed, catalog());
  ASSERT_TRUE(non_monotone.ok()) << non_monotone.status().ToString();
  ASSERT_FALSE((*non_monotone)->IsMonotone());
  ExpectGraph("goal-4sem-non-monotone", catalog(), schedule(),
              Goal(4, options, {}, non_monotone->get()));
}

// One complete run per ranking; the time ranking also at paper_batch's
// 6-semester k = 100 cell. The reliability model is the CLI's: the
// schedule as its own history, released one semester past the start.
TEST_F(GoldenBrandeisTest, RankedRuns) {
  ExplorationOptions options;
  TimeRanking time;
  WorkloadRanking workload(&catalog());
  BottleneckWorkloadRanking bottleneck(&catalog());
  ScheduleHistory history;
  history.ImportSchedule(schedule());
  const OfferingProbabilityModel model(&schedule(), Start(5).term.Next(),
                                       std::move(history), 0.5);
  ReliabilityRanking reliability(&model);
  ExpectPaths("ranked-5sem-time-k10", catalog(),
              Ranked(5, time, 10, options));
  ExpectPaths("ranked-6sem-time-k100", catalog(),
              Ranked(6, time, 100, options));
  ExpectPaths("ranked-5sem-workload-k10", catalog(),
              Ranked(5, workload, 10, options));
  ExpectPaths("ranked-5sem-bottleneck-k20", catalog(),
              Ranked(5, bottleneck, 20, options));
  ExpectPaths("ranked-5sem-reliability-k10", catalog(),
              Ranked(5, reliability, 10, options));
}

TEST_F(GoldenBrandeisTest, NodeBudgets) {
  TimeRanking time;
  for (int64_t max_nodes : {2, 65, 1000}) {
    ExplorationOptions options;
    options.limits.max_nodes = max_nodes;
    const std::string suffix =
        StrFormat("-nodes%lld", static_cast<long long>(max_nodes));
    ExpectGraph("deadline-4sem" + suffix, catalog(), schedule(),
                Deadline(4, options));
    ExpectGraph("goal-5sem" + suffix, catalog(), schedule(), Goal(5, options));
    ExpectPaths("ranked-5sem" + suffix, catalog(),
                Ranked(5, time, 10, options));
  }
}

// An avoided course is never elected and never listed among a status's
// options, so these rows pin how the avoid set reaches the exported
// option sets.
TEST_F(GoldenBrandeisTest, AvoidedElective) {
  ExplorationOptions options;
  Result<DynamicBitset> avoided = catalog().CourseSetFromCodes({"COSI2A"});
  ASSERT_TRUE(avoided.ok()) << avoided.status().ToString();
  options.avoid_courses = *avoided;
  ExpectGraph("deadline-3sem-avoid", catalog(), schedule(),
              Deadline(3, options), options.avoid_courses);
  for (int threads : {0, 4}) {
    options.num_threads = threads;
    ExpectGraph(StrFormat("goal-4sem-avoid-t%d", threads), catalog(),
                schedule(), Goal(4, options), options.avoid_courses);
  }
}

// A budget charges each node sizeof(LearningNode) plus its spilled bitset
// words, so these rows change whenever the node's size does. A ranked run
// also charges its frontier entries, its deferred children and its
// deferral table, one record per expanded status.
TEST_F(GoldenBrandeisTest, MemoryBudgets) {
  TimeRanking time;
  for (size_t max_memory_bytes : {size_t{64} << 10, size_t{1} << 20}) {
    ExplorationOptions options;
    options.limits.max_memory_bytes = max_memory_bytes;
    ExpectGraph(StrFormat("goal-5sem-memory%zu", max_memory_bytes), catalog(),
                schedule(), Goal(5, options));
    ExpectPaths(StrFormat("ranked-5sem-memory%zu", max_memory_bytes),
                catalog(), Ranked(5, time, 10, options));
  }
}

TEST_F(GoldenBrandeisTest, Counts) {
  ExplorationOptions options;
  for (int span : {3, 4, 5}) {
    ExpectCount(StrFormat("count-deadline-%dsem", span),
                Count(span, false, options));
  }
  for (int span : {4, 5}) {
    ExpectCount(StrFormat("count-goal-%dsem", span),
                Count(span, true, options));
  }
  ExplorationOptions skip;
  skip.allow_voluntary_skip = true;
  ExpectCount("count-goal-5sem-voluntary-skip", Count(5, true, skip));
  ExplorationOptions capped;
  capped.limits.max_nodes = 1000;
  ExpectCount("count-goal-5sem-cap1000", Count(5, true, capped));
}

}  // namespace
}  // namespace coursenav
