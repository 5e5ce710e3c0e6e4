#include "tools/lint/lint.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "graph/learning_graph.h"
#include "tests/test_util.h"
#include "util/bitset.h"
#include "util/check.h"

namespace coursenav {

/// Test-only backdoor (friend of LearningGraph): hands out mutable views of
/// the private arenas so tests can hand-corrupt a graph and prove
/// CheckInvariants rejects it.
class LearningGraphTestPeer {
 public:
  static LearningNode& MutableNode(LearningGraph& graph, NodeId id) {
    return graph.node_mut(id);
  }
};

namespace {

using lint::Finding;
using lint::LintContent;

// ---------------------------------------------------------------------------
// Lint-rule fixtures. Each rule gets a firing fixture, a NOLINT-suppressed
// fixture, and a clean fixture. The fixture runner lives in
// tests/test_util.h so other suites can lint generated sources too.
// ---------------------------------------------------------------------------

using testing_util::LintRuleHits;

TEST(LayeringRuleTest, FlagsUpwardInclude) {
  std::vector<std::string> hits =
      LintRuleHits("src/core/engine.cc", "#include \"service/navigator.h\"\n",
           "coursenav-layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("src/core/engine.cc:1:"), std::string::npos);
  EXPECT_NE(hits[0].find("[coursenav-layering]"), std::string::npos);
  EXPECT_NE(hits[0].find("'service'"), std::string::npos);
}

TEST(LayeringRuleTest, FlagsUtilIncludingAnything) {
  EXPECT_EQ(LintRuleHits("src/util/result.h", "#include \"expr/expr.h\"\n",
                 "coursenav-layering")
                .size(),
            1u);
}

TEST(LayeringRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "#include \"service/navigator.h\"  "
                   "// NOLINT(coursenav-layering)\n",
                   "coursenav-layering")
                  .empty());
}

TEST(LayeringRuleTest, AllowsDeclaredDeps) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "#include \"graph/learning_graph.h\"\n"
                   "#include \"requirements/goal.h\"\n"
                   "#include \"util/bitset.h\"\n",
                   "coursenav-layering")
                  .empty());
}

TEST(LayeringRuleTest, CoreMustNotIncludePlan) {
  std::vector<std::string> hits =
      LintRuleHits("src/core/engine.cc", "#include \"plan/request.h\"\n",
           "coursenav-layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("'plan'"), std::string::npos);
}

TEST(LayeringRuleTest, PlanMayUseCoreAndExecButNotService) {
  EXPECT_TRUE(LintRuleHits("src/plan/executor.cc",
                   "#include \"core/engine.h\"\n"
                   "#include \"exec/parallel_expander.h\"\n"
                   "#include \"graph/learning_graph.h\"\n",
                   "coursenav-layering")
                  .empty());
  EXPECT_EQ(LintRuleHits("src/plan/planner.cc",
                 "#include \"service/navigator.h\"\n",
                 "coursenav-layering")
                .size(),
            1u);
}

TEST(LayeringRuleTest, ServiceMayIncludePlan) {
  EXPECT_TRUE(LintRuleHits("src/service/navigator.h",
                   "#include \"plan/request.h\"\n",
                   "coursenav-layering")
                  .empty());
}

TEST(LayeringRuleTest, IgnoresFilesOutsideSrc) {
  EXPECT_TRUE(LintRuleHits("tests/some_test.cc", "#include \"service/navigator.h\"\n",
                   "coursenav-layering")
                  .empty());
}

TEST(LayeringRuleTest, IgnoresSystemAndUnknownIncludes) {
  EXPECT_TRUE(LintRuleHits("src/util/result.h",
                   "#include <vector>\n#include \"gtest/gtest.h\"\n",
                   "coursenav-layering")
                  .empty());
}

TEST(BannedSymbolRuleTest, FlagsRandCall) {
  std::vector<std::string> hits = LintRuleHits(
      "src/core/engine.cc", "int x = rand();\n", "coursenav-banned-symbol");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("'rand'"), std::string::npos);
}

TEST(BannedSymbolRuleTest, FlagsSystemClockEverywhere) {
  EXPECT_EQ(LintRuleHits("tests/some_test.cc",
                 "auto t = std::chrono::system_clock::now();\n",
                 "coursenav-banned-symbol")
                .size(),
            1u);
}

TEST(BannedSymbolRuleTest, SteadyClockScopedByModule) {
  const char* use = "auto t = std::chrono::steady_clock::now();\n";
  // Banned in the pure algorithmic layers...
  EXPECT_EQ(LintRuleHits("src/core/engine.cc", use, "coursenav-banned-symbol").size(),
            1u);
  // ...allowed in the timing substrate and outside src/.
  EXPECT_TRUE(
      LintRuleHits("src/util/stopwatch.cc", use, "coursenav-banned-symbol").empty());
  EXPECT_TRUE(
      LintRuleHits("bench/bench_util.h", use, "coursenav-banned-symbol").empty());
}

TEST(BannedSymbolRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "int x = rand();  // NOLINT(coursenav-banned-symbol)\n",
                   "coursenav-banned-symbol")
                  .empty());
}

TEST(BannedSymbolRuleTest, CleanOnQualifiedUsesAndWords) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "double time = 0;\n"            // plain word, not a call
                   "budget.time();\n"              // member call
                   "clock->time();\n"              // member call
                   "Stopwatch::time();\n"          // qualified call
                   "// calling time() is bad\n"    // comment
                   "Log(\"rand() and time()\");\n",  // string literal
                   "coursenav-banned-symbol")
                  .empty());
}

TEST(RawNewRuleTest, FlagsNewAndDelete) {
  EXPECT_EQ(
      LintRuleHits("src/core/engine.cc", "int* p = new int;\n", "coursenav-raw-new")
          .size(),
      1u);
  EXPECT_EQ(LintRuleHits("src/core/engine.cc", "delete ptr;\n", "coursenav-raw-new")
                .size(),
            1u);
}

TEST(RawNewRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "static Foo* f = new Foo;  // NOLINT(coursenav-raw-new)\n",
                   "coursenav-raw-new")
                  .empty());
}

TEST(RawNewRuleTest, CleanOnDeletedMembersAndMakeUnique) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "Foo(const Foo&) = delete;\n"
                   "void* operator new(size_t size);\n"
                   "auto p = std::make_unique<int>(7);\n"
                   "// the old code used new/delete here\n",
                   "coursenav-raw-new")
                  .empty());
}

TEST(SimdEncapsulationRuleTest, FlagsBuiltinsAndIntrinsicsOutsideSimd) {
  EXPECT_EQ(LintRuleHits("src/util/bitset.cc",
                 "int n = __builtin_popcountll(word);\n",
                 "coursenav-simd-encapsulation")
                .size(),
            1u);
  EXPECT_EQ(LintRuleHits("src/core/pruning.cc", "int t = __builtin_ctzll(w);\n",
                 "coursenav-simd-encapsulation")
                .size(),
            1u);
  EXPECT_EQ(LintRuleHits("src/graph/learning_graph.cc",
                 "__m256i v = _mm256_loadu_si256(p);\n",
                 "coursenav-simd-encapsulation")
                .size(),
            1u);
  EXPECT_EQ(LintRuleHits("src/core/ranking.cc", "#include <immintrin.h>\n",
                 "coursenav-simd-encapsulation")
                .size(),
            1u);
}

TEST(SimdEncapsulationRuleTest, CleanInsideSimdLayerAndOnWrappers) {
  EXPECT_TRUE(LintRuleHits("src/util/simd/simd_avx2.cc",
                   "__m256i v = _mm256_loadu_si256(p);\n"
                   "int n = __builtin_popcountll(w);\n",
                   "coursenav-simd-encapsulation")
                  .empty());
  EXPECT_TRUE(LintRuleHits("src/core/pruning.cc",
                   "int n = simd::Popcount(words, stride);\n"
                   "int t = simd::CountTrailingZeros(w);\n",
                   "coursenav-simd-encapsulation")
                  .empty());
}

TEST(SimdEncapsulationRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(
      LintRuleHits("src/core/engine.cc",
           "int n = __builtin_popcount(m);  "
           "// NOLINT(coursenav-simd-encapsulation)\n",
           "coursenav-simd-encapsulation")
          .empty());
}

TEST(UnorderedIterRuleTest, FlagsRangeForInTaggedFile) {
  std::vector<std::string> hits =
      LintRuleHits("src/core/engine.cc",
           "// coursenav:deterministic\n"
           "std::unordered_map<int, int> cache_;\n"
           "void Dump() { for (const auto& kv : cache_) Use(kv); }\n",
           "coursenav-unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find(":3:"), std::string::npos);
  EXPECT_NE(hits[0].find("cache_"), std::string::npos);
}

TEST(UnorderedIterRuleTest, FlagsManualBeginIteration) {
  EXPECT_EQ(LintRuleHits("src/core/engine.cc",
                 "// coursenav:deterministic\n"
                 "std::unordered_set<int> seen_;\n"
                 "auto it = seen_.begin();\n",
                 "coursenav-unordered-iter")
                .size(),
            1u);
}

TEST(UnorderedIterRuleTest, UntaggedFileIsExempt) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "std::unordered_map<int, int> cache_;\n"
                   "void Dump() { for (const auto& kv : cache_) Use(kv); }\n",
                   "coursenav-unordered-iter")
                  .empty());
}

TEST(UnorderedIterRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(
      LintRuleHits("src/core/engine.cc",
           "// coursenav:deterministic\n"
           "std::unordered_map<int, int> cache_;\n"
           "for (const auto& kv : cache_) {  // NOLINT(coursenav-unordered-iter)\n"
           "}\n",
           "coursenav-unordered-iter")
          .empty());
}

TEST(UnorderedIterRuleTest, CleanOnLookupsAndOrderedIteration) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc",
                   "// coursenav:deterministic\n"
                   "std::unordered_map<int, int> cache_;\n"
                   "std::map<int, int> sorted_;\n"
                   "bool Has(int k) { return cache_.find(k) != cache_.end(); }\n"
                   "void Dump() { for (const auto& kv : sorted_) Use(kv); }\n",
                   "coursenav-unordered-iter")
                  .empty());
}

TEST(EndlRuleTest, FlagsEndl) {
  EXPECT_EQ(LintRuleHits("src/service/navigator.cc", "os << \"done\" << std::endl;\n",
                 "coursenav-endl")
                .size(),
            1u);
}

TEST(EndlRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(
      LintRuleHits("src/service/navigator.cc",
           "os << \"done\" << std::endl;  // NOLINT(coursenav-endl)\n",
           "coursenav-endl")
          .empty());
}

TEST(EndlRuleTest, CleanOnNewlineAndMentionsInText) {
  EXPECT_TRUE(LintRuleHits("src/service/navigator.cc",
                   "os << \"done\\n\";\n"
                   "// std::endl is banned\n"
                   "Log(\"std::endl\");\n",
                   "coursenav-endl")
                  .empty());
}

TEST(HeaderGuardRuleTest, FlagsMissingGuard) {
  std::vector<std::string> hits =
      LintRuleHits("src/core/engine.h", "#include <vector>\nint x;\n",
           "coursenav-header-guard");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("does not start with"), std::string::npos);
}

TEST(HeaderGuardRuleTest, FlagsMismatchedDefine) {
  EXPECT_EQ(LintRuleHits("src/core/engine.h",
                 "#ifndef COURSENAV_CORE_ENGINE_H_\n#define WRONG_NAME\n",
                 "coursenav-header-guard")
                .size(),
            1u);
}

TEST(HeaderGuardRuleTest, FlagsNonConventionalGuardUnderSrc) {
  std::vector<std::string> hits =
      LintRuleHits("src/core/engine.h", "#ifndef ENGINE_H\n#define ENGINE_H\n",
           "coursenav-header-guard");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("COURSENAV_CORE_ENGINE_H_"), std::string::npos);
}

TEST(HeaderGuardRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.h",
                   "#include <vector>  // NOLINT(coursenav-header-guard)\n",
                   "coursenav-header-guard")
                  .empty());
}

TEST(HeaderGuardRuleTest, AcceptsPragmaOnceAndConventionalGuard) {
  EXPECT_TRUE(LintRuleHits("src/core/engine.h", "#pragma once\nint x;\n",
                   "coursenav-header-guard")
                  .empty());
  EXPECT_TRUE(
      LintRuleHits("src/core/engine.h",
           "// A leading comment is fine.\n"
           "#ifndef COURSENAV_CORE_ENGINE_H_\n"
           "#define COURSENAV_CORE_ENGINE_H_\n"
           "#endif  // COURSENAV_CORE_ENGINE_H_\n",
           "coursenav-header-guard")
          .empty());
  // No path convention outside src/; any matching guard passes.
  EXPECT_TRUE(LintRuleHits("tools/lint/lint.h",
                   "#ifndef MY_GUARD_H_\n#define MY_GUARD_H_\n",
                   "coursenav-header-guard")
                  .empty());
  // Source files need no guard at all.
  EXPECT_TRUE(LintRuleHits("src/core/engine.cc", "#include <vector>\n",
                   "coursenav-header-guard")
                  .empty());
}

TEST(DirectGenerateRuleTest, FlagsDirectCallInSrcModules) {
  std::vector<std::string> hits =
      LintRuleHits("src/service/session.cc",
           "auto r = GenerateRankedPaths(catalog, schedule, start, end,\n"
           "                             goal, ranking, k, options);\n",
           "coursenav-direct-generate");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("GenerateRankedPaths"), std::string::npos);
  EXPECT_NE(hits[0].find("ExplorationRequest"), std::string::npos);
  EXPECT_EQ(LintRuleHits("src/exec/parallel_expander.cc",
                 "GenerateDeadlineDrivenPaths(catalog, schedule, s, e, o);\n",
                 "coursenav-direct-generate")
                .size(),
            1u);
}

TEST(DirectGenerateRuleTest, PlanModuleAndFacadeHeadersExempt) {
  EXPECT_TRUE(LintRuleHits("src/plan/facades.cc",
                   "Result<RankedResult> GenerateRankedPaths(\n",
                   "coursenav-direct-generate")
                  .empty());
  EXPECT_TRUE(LintRuleHits("src/core/ranked_generator.h",
                   "Result<RankedResult> GenerateRankedPaths(\n",
                   "coursenav-direct-generate")
                  .empty());
}

TEST(DirectGenerateRuleTest, OutOfSrcCallersAndCommentsExempt) {
  // tools/tests/bench call the public facades legitimately.
  EXPECT_TRUE(LintRuleHits("tests/plan_test.cc",
                   "auto r = GenerateGoalDrivenPaths(c, s, st, e, g, o);\n",
                   "coursenav-direct-generate")
                  .empty());
  // Mentions in comments never fire (the scrubbed view is scanned).
  EXPECT_TRUE(LintRuleHits("src/core/counting.h",
                   "// same leaf set as GenerateDeadlineDrivenPaths\n",
                   "coursenav-direct-generate")
                  .empty());
}

TEST(DirectGenerateRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(LintRuleHits("src/service/session.cc",
                   "auto r = GenerateRankedPaths(c, s, st, e, g, rk, k, o);"
                   "  // NOLINT(coursenav-direct-generate)\n",
                   "coursenav-direct-generate")
                  .empty());
}

TEST(LintDriverTest, AllRulesHaveUniqueIdsAndDescriptions) {
  std::set<std::string_view> ids;
  for (const lint::Rule* rule : lint::AllRules()) {
    EXPECT_FALSE(rule->id().empty());
    EXPECT_FALSE(rule->description().empty());
    EXPECT_TRUE(ids.insert(rule->id()).second)
        << "duplicate rule id " << rule->id();
  }
  EXPECT_EQ(ids.size(), 11u);
}

TEST(LintDriverTest, FullScanAggregatesAndSortsFindings) {
  std::vector<Finding> findings =
      LintContent("src/core/engine.h",
                  "#include \"service/navigator.h\"\n"
                  "int x = rand();\n");
  // Missing guard (line 1), bad include (line 1), rand() (line 2).
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 1);
  EXPECT_EQ(findings[2].line, 2);
  EXPECT_LE(findings[0].rule, findings[1].rule);
}

TEST(LintDriverTest, NolintListSuppressesOnlyNamedRules) {
  std::vector<Finding> findings = LintContent(
      "src/core/engine.cc",
      "int x = rand();  // NOLINT(coursenav-endl, coursenav-banned-symbol)\n"
      "int y = rand();  // NOLINT(coursenav-endl)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "coursenav-banned-symbol");
}

TEST(MutexAnnotationRuleTest, FlagsRawStdPrimitivesInSrc) {
  std::vector<std::string> hits =
      LintRuleHits("src/serve/widget.h",
                   "#pragma once\n"
                   "std::mutex mu_;\n"
                   "std::condition_variable cv_;\n",
                   "coursenav-mutex-annotation");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].find("std::mutex"), std::string::npos);
  EXPECT_NE(hits[0].find("coursenav::Mutex"), std::string::npos);
  EXPECT_NE(hits[1].find("std::condition_variable"), std::string::npos);
}

TEST(MutexAnnotationRuleTest, FlagsMutexMemberWithoutGuardedByConsumer) {
  std::vector<std::string> hits =
      LintRuleHits("src/exec/widget.h",
                   "class W {\n"
                   "  mutable Mutex mu_;\n"
                   "  int count_ = 0;\n"
                   "};\n",
                   "coursenav-mutex-annotation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find(":2:"), std::string::npos);
  EXPECT_NE(hits[0].find("'mu_'"), std::string::npos);
  EXPECT_NE(hits[0].find("CN_GUARDED_BY"), std::string::npos);
}

TEST(MutexAnnotationRuleTest, FlagsUnjustifiedEscapeHatch) {
  EXPECT_EQ(LintRuleHits("src/obs/widget.cc",
                         "void Tick() CN_NO_THREAD_SAFETY_ANALYSIS {\n"
                         "}\n",
                         "coursenav-mutex-annotation")
                .size(),
            1u);
}

TEST(MutexAnnotationRuleTest, AdjacentCommentJustifiesEscapeHatch) {
  EXPECT_TRUE(
      LintRuleHits("src/obs/widget.cc",
                   "// Benign counter race: stats only, off the hot path.\n"
                   "void Tick() CN_NO_THREAD_SAFETY_ANALYSIS {\n"
                   "}\n",
                   "coursenav-mutex-annotation")
          .empty());
}

TEST(MutexAnnotationRuleTest, CleanOnGuardedMembersAndExemptFiles) {
  // A consumed Mutex member passes; CN_REQUIRES counts as consumption too.
  EXPECT_TRUE(
      LintRuleHits("src/serve/widget.h",
                   "class W {\n"
                   "  void PokeLocked() CN_REQUIRES(mu_);\n"
                   "  mutable Mutex mu_;\n"
                   "  int hits_ CN_GUARDED_BY(mu_) = 0;\n"
                   "};\n",
                   "coursenav-mutex-annotation")
          .empty());
  // The wrapper's own implementation is the one home of std primitives.
  EXPECT_TRUE(LintRuleHits("src/util/mutex.h", "std::mutex mu_;\n",
                           "coursenav-mutex-annotation")
                  .empty());
  // Code outside src/ owns its own locking.
  EXPECT_TRUE(LintRuleHits("tools/coursenav_cli.cc", "std::mutex mu;\n",
                           "coursenav-mutex-annotation")
                  .empty());
}

TEST(MutexAnnotationRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(LintRuleHits("src/exec/widget.h",
                           "Mutex unused_;  // NOLINT(coursenav-mutex-annotation)\n",
                           "coursenav-mutex-annotation")
                  .empty());
}

TEST(LockOrderRuleTest, FlagsAcquisitionAgainstDeclaredOrder) {
  // The default registry (tools/lint/lock_order.txt) is outermost-first:
  // lifecycle_mu_, slo_mu_, mu_, mu.
  std::vector<std::string> hits =
      LintRuleHits("src/serve/widget.cc",
                   "void F() {\n"
                   "  MutexLock inner(mu_);\n"
                   "  MutexLock outer(lifecycle_mu_);\n"
                   "}\n",
                   "coursenav-lock-order");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find(":3:"), std::string::npos);
  EXPECT_NE(hits[0].find("lock-order violation"), std::string::npos);
}

TEST(LockOrderRuleTest, FlagsSelfReacquisitionThroughMemberSyntax) {
  // `ticket->mu` normalizes to `mu`, colliding with the held `mu`.
  std::vector<std::string> hits =
      LintRuleHits("src/serve/widget.cc",
                   "void F(Ticket* ticket) {\n"
                   "  MutexLock a(mu);\n"
                   "  MutexLock b(ticket->mu);\n"
                   "}\n",
                   "coursenav-lock-order");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("self-deadlock"), std::string::npos);
}

TEST(LockOrderRuleTest, FlagsCycleAcrossFunctionsInOneFile) {
  // F takes alpha then beta; G takes beta then alpha: neither acquisition
  // breaks the registry (unranked names), but together they deadlock.
  std::vector<std::string> hits =
      LintRuleHits("src/exec/widget.cc",
                   "void F() {\n"
                   "  MutexLock a(alpha_lock);\n"
                   "  MutexLock b(beta_lock);\n"
                   "}\n"
                   "void G() {\n"
                   "  MutexLock b(beta_lock);\n"
                   "  MutexLock a(alpha_lock);\n"
                   "}\n",
                   "coursenav-lock-order");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].find("lock-order cycle"), std::string::npos);
  EXPECT_NE(hits[0].find("alpha_lock"), std::string::npos);
  EXPECT_NE(hits[0].find("beta_lock"), std::string::npos);
}

TEST(LockOrderRuleTest, CleanOnOrderedAndSequentialAcquisition) {
  // Nested in declared order, and sequential (non-overlapping) scopes.
  EXPECT_TRUE(
      LintRuleHits("src/serve/widget.cc",
                   "void F() {\n"
                   "  MutexLock outer(lifecycle_mu_);\n"
                   "  MutexLock inner(slo_mu_);\n"
                   "}\n"
                   "void G() {\n"
                   "  { MutexLock a(mu_); }\n"
                   "  { MutexLock b(lifecycle_mu_); }\n"
                   "}\n",
                   "coursenav-lock-order")
          .empty());
  // std scoped-lock shapes parse the same way.
  EXPECT_TRUE(
      LintRuleHits("tools/widget.cc",
                   "void F() {\n"
                   "  std::lock_guard<std::mutex> lock(tally.mu);\n"
                   "}\n",
                   "coursenav-lock-order")
          .empty());
}

TEST(LockOrderRuleTest, RegistryIsReplaceable) {
  std::vector<std::string> saved = lint::LockOrder();
  lint::SetLockOrder({"outer_mu", "inner_mu"});
  EXPECT_EQ(LintRuleHits("src/core/widget.cc",
                         "void F() {\n"
                         "  MutexLock a(inner_mu);\n"
                         "  MutexLock b(outer_mu);\n"
                         "}\n",
                         "coursenav-lock-order")
                .size(),
            1u);
  lint::SetLockOrder(saved);
  EXPECT_TRUE(LintRuleHits("src/core/widget.cc",
                           "void F() {\n"
                           "  MutexLock a(inner_mu);\n"
                           "  MutexLock b(outer_mu);\n"
                           "}\n",
                           "coursenav-lock-order")
                  .empty());
}

TEST(LockOrderRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(
      LintRuleHits("src/serve/widget.cc",
                   "void F() {\n"
                   "  MutexLock inner(mu_);\n"
                   "  MutexLock outer(lifecycle_mu_);"
                   "  // NOLINT(coursenav-lock-order)\n"
                   "}\n",
                   "coursenav-lock-order")
          .empty());
}

TEST(HotPathRuleTest, FlagsAllocationBlockingAndLockingInRegion) {
  std::vector<std::string> hits =
      LintRuleHits("src/expr/widget.cc",
                   "// coursenav:hot — kernel\n"
                   "void K(std::vector<int>& v) {\n"
                   "  v.push_back(1);\n"
                   "  MutexLock lock(mu_);\n"
                   "  printf(\"x\");\n"
                   "}\n"
                   "// coursenav:hot-end\n"
                   "void Setup(std::vector<int>& v) { v.reserve(64); }\n",
                   "coursenav-hot-path");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_NE(hits[0].find("'push_back' may allocate"), std::string::npos);
  EXPECT_NE(hits[1].find("'MutexLock' acquires a lock"), std::string::npos);
  EXPECT_NE(hits[2].find("'printf' blocks"), std::string::npos);
}

TEST(HotPathRuleTest, FlagsUnclosedAndDanglingMarkers) {
  std::vector<std::string> unclosed =
      LintRuleHits("src/expr/widget.cc",
                   "// coursenav:hot\n"
                   "int f();\n",
                   "coursenav-hot-path");
  ASSERT_EQ(unclosed.size(), 1u);
  EXPECT_NE(unclosed[0].find("unclosed"), std::string::npos);
  std::vector<std::string> dangling = LintRuleHits(
      "src/expr/widget.cc", "// coursenav:hot-end\n", "coursenav-hot-path");
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_NE(dangling[0].find("without an open"), std::string::npos);
}

TEST(HotPathRuleTest, MarkerMustLeadItsOwnCommentLine) {
  // Prose mentions and string literals never open a region.
  EXPECT_TRUE(
      LintRuleHits("src/expr/widget.cc",
                   "// See the coursenav:hot region in dnf.cc for details.\n"
                   "const char* tag = \"coursenav:hot\";\n"
                   "void Setup(std::vector<int>& v) { v.reserve(64); }\n",
                   "coursenav-hot-path")
          .empty());
}

TEST(HotPathRuleTest, CleanOnPureKernels) {
  EXPECT_TRUE(LintRuleHits("src/util/simd/widget.cc",
                           "// coursenav:hot — word loops only\n"
                           "int Popcount(const uint64_t* a, size_t n) {\n"
                           "  int total = 0;\n"
                           "  for (size_t i = 0; i < n; ++i) {\n"
                           "    total += PopcountWord(a[i]);\n"
                           "  }\n"
                           "  return total;\n"
                           "}\n"
                           "// coursenav:hot-end\n",
                           "coursenav-hot-path")
                  .empty());
}

TEST(HotPathRuleTest, SuppressedByNolint) {
  EXPECT_TRUE(
      LintRuleHits("src/expr/widget.cc",
                   "// coursenav:hot\n"
                   "void K(Buf& b) { b.resize(1); }"
                   "  // NOLINT(coursenav-hot-path)\n"
                   "// coursenav:hot-end\n",
                   "coursenav-hot-path")
          .empty());
}

// NOLINT hygiene is a driver-level pass, so it is exercised through the
// all-rules LintContent entry point.
TEST(LintDriverTest, FlagsUnknownCoursenavRuleInNolint) {
  std::vector<Finding> findings = LintContent(
      "src/core/engine.cc",
      "int x = 1;  // NOLINT(coursenav-nonexistent)\n");  // NOLINT(coursenav-nolint)
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "coursenav-nolint");
  EXPECT_NE(findings[0].message.find("coursenav-nonexistent"),
            std::string::npos);
}

TEST(LintDriverTest, UnknownNolintRuleDoesNotSuppress) {
  std::vector<Finding> findings = LintContent(
      "src/core/engine.cc",
      "int x = rand();  // NOLINT(coursenav-band-symbol)\n");  // NOLINT(coursenav-nolint)
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "coursenav-banned-symbol");
  EXPECT_EQ(findings[1].rule, "coursenav-nolint");
}

TEST(LintDriverTest, ClangTidyNolintIdsPassThrough) {
  EXPECT_TRUE(LintContent("src/core/engine.cc",
                          "int x = 1;  // NOLINT(bugprone-branch-clone)\n")
                  .empty());
}

TEST(LintDriverTest, NolintFindingIsItselfSuppressible) {
  EXPECT_TRUE(
      LintContent(
          "src/core/engine.cc",
          "int x = 1;  // NOLINT(coursenav-legacy-rule, coursenav-nolint)\n")  // NOLINT(coursenav-nolint)
          .empty());
}

// ---------------------------------------------------------------------------
// CN_CHECK contracts.
// ---------------------------------------------------------------------------

/// Thrown by the installed test handler in place of abort().
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void ThrowOnCheckFailure(const std::string& message) {
  throw CheckFailed(message);
}

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { SetCheckFailureHandler(&ThrowOnCheckFailure); }
  void TearDown() override { SetCheckFailureHandler(nullptr); }

  /// Runs `fn`, which must trip a check, and returns the failure message.
  template <typename Fn>
  std::string FailureMessage(Fn fn) {
    try {
      fn();
    } catch (const CheckFailed& failure) {
      return failure.what();
    }
    ADD_FAILURE() << "expected a check failure";
    return "";
  }
};

TEST_F(CheckTest, PassingChecksAreSilent) {
  CN_CHECK(1 + 1 == 2) << "never rendered";
  CN_CHECK_EQ(2, 2);
  CN_CHECK_LT(1, 2) << "never rendered";
}

TEST_F(CheckTest, FailureMessageCarriesConditionAndContext) {
  std::string message =
      FailureMessage([] { CN_CHECK(2 < 1) << "ctx " << 42; });
  EXPECT_NE(message.find("CN_CHECK(2 < 1) failed"), std::string::npos);
  EXPECT_NE(message.find(": ctx 42"), std::string::npos);
  EXPECT_NE(message.find("lint_test.cc"), std::string::npos);
}

TEST_F(CheckTest, OpChecksPrintBothOperands) {
  std::string message = FailureMessage([] {
    int lhs = 3;
    int rhs = 7;
    CN_CHECK_EQ(lhs, rhs) << "ids diverged";
  });
  EXPECT_NE(message.find("CN_CHECK_EQ(lhs, rhs) failed"), std::string::npos);
  EXPECT_NE(message.find("(3 vs. 7)"), std::string::npos);
  EXPECT_NE(message.find("ids diverged"), std::string::npos);
}

TEST_F(CheckTest, OpChecksEvaluateOperandsOnce) {
  int evaluations = 0;
  auto next = [&evaluations] { return ++evaluations; };
  CN_CHECK_GE(next(), 1);
  EXPECT_EQ(evaluations, 1);
}

TEST_F(CheckTest, StreamedOperandsAreLazy) {
  bool rendered = false;
  auto render = [&rendered] {
    rendered = true;
    return "message";
  };
  CN_CHECK(true) << render();
  EXPECT_FALSE(rendered);
}

TEST_F(CheckTest, UnreachableAlwaysFires) {
  std::string message =
      FailureMessage([] { CN_UNREACHABLE() << "kind " << 9; });
  EXPECT_NE(message.find("CN_UNREACHABLE()"), std::string::npos);
  EXPECT_NE(message.find("kind 9"), std::string::npos);
}

TEST_F(CheckTest, DisabledDcheckNeverEvaluates) {
  // In dcheck builds these run (and pass); in regular builds the operands
  // sit in a dead branch and must not be evaluated.
  int evaluations = 0;
  auto next = [&evaluations] { return ++evaluations; };
  CN_DCHECK(next() > 0);
  CN_DCHECK_GE(next(), 0);
  if (CN_DCHECK_IS_ON()) {
    EXPECT_EQ(evaluations, 2);
  } else {
    EXPECT_EQ(evaluations, 0);
  }
}

// ---------------------------------------------------------------------------
// LearningGraph::CheckInvariants against hand-corrupted graphs.
// ---------------------------------------------------------------------------

class GraphInvariantsTest : public CheckTest {
 protected:
  static DynamicBitset Bits(std::initializer_list<int> ids) {
    DynamicBitset bits(4);
    for (int id : ids) bits.set(id);
    return bits;
  }

  /// root --{0}--> a --{1}--> b, plus root --{1}--> c. Ids: root 0, a 1,
  /// c 2, b 3 (a node's children are added back to back).
  LearningGraph MakeValidGraph() {
    LearningGraph graph;
    NodeId root = graph.AddRoot(Term(Season::kFall, 2012), Bits({}));
    NodeId a = graph.AddChild(root, Bits({0}));
    graph.AddChild(root, Bits({1}));
    graph.AddChild(a, Bits({1}));
    return graph;
  }
};

TEST_F(GraphInvariantsTest, ValidGraphPasses) {
  LearningGraph graph = MakeValidGraph();
  graph.CheckInvariants();  // must not throw
}

TEST_F(GraphInvariantsTest, RejectsBrokenTermAdvance) {
  LearningGraph graph = MakeValidGraph();
  // Child claims the same semester as its parent — were parent links ever
  // cyclic, some edge would have to stall or rewind the term like this.
  LearningNode& child = LearningGraphTestPeer::MutableNode(graph, 1);
  child.term = graph.node(0).term;
  std::string message = FailureMessage([&] { graph.CheckInvariants(); });
  EXPECT_NE(message.find("CN_CHECK"), std::string::npos);
}

TEST_F(GraphInvariantsTest, RejectsEdgeEndpointMismatch) {
  LearningGraph graph = MakeValidGraph();
  // The root's out-edges now claim to lead to node 1's child, and its own
  // children fall outside its range.
  LearningGraphTestPeer::MutableNode(graph, 0).out_edges =
      graph.node(1).out_edges;
  FailureMessage([&] { graph.CheckInvariants(); });
}

TEST_F(GraphInvariantsTest, RejectsChildClaimingAnotherParent) {
  LearningGraph graph = MakeValidGraph();
  // Node 2 names node 1 as its parent, but node 1's range lists node 3 only.
  LearningGraphTestPeer::MutableNode(graph, 2).parent = 1;
  FailureMessage([&] { graph.CheckInvariants(); });
}

TEST_F(GraphInvariantsTest, RejectsSelectionOutsideParentOptions) {
  // Four courses without prerequisites: Fall 2012 offers 0 and 1, Spring
  // 2013 offers 1 and 2, so the valid graph elects only available courses.
  Catalog catalog;
  for (const char* code : {"A", "B", "C", "D"}) {
    Course course;
    course.code = code;
    ASSERT_TRUE(catalog.AddCourse(std::move(course)).ok());
  }
  ASSERT_TRUE(catalog.Finalize().ok());
  OfferingSchedule schedule(catalog.size());
  const Term fall12(Season::kFall, 2012);
  for (CourseId course : {0, 1}) {
    ASSERT_TRUE(schedule.AddOffering(course, fall12).ok());
    ASSERT_TRUE(schedule.AddOffering(course + 1, fall12.Next()).ok());
  }
  LearningGraph graph = MakeValidGraph();
  graph.CheckAvailability(catalog, schedule, std::nullopt);  // must not throw

  // An avoided course is no option: node 2 elected course 1.
  std::string message = FailureMessage(
      [&] { graph.CheckAvailability(catalog, schedule, Bits({1})); });
  EXPECT_NE(message.find("selection into node 2"), std::string::npos)
      << message;

  // Node 2 now elects course 3, which Fall 2012 does not offer: its
  // completed set still contains its parent's, so the structure stays
  // sound and only availability is broken.
  LearningNode& child = LearningGraphTestPeer::MutableNode(graph, 2);
  child.completed = Bits({3});
  graph.CheckInvariants();  // must not throw
  message = FailureMessage(
      [&] { graph.CheckAvailability(catalog, schedule, std::nullopt); });
  EXPECT_NE(message.find("elects courses outside the parent's options"),
            std::string::npos)
      << message;
}

TEST_F(GraphInvariantsTest, AddingToAClosedChildRangeFails) {
  LearningGraph graph = MakeValidGraph();
  // Node 3 (node 1's child) was created after the root's children, so the
  // root's range is closed.
  std::string message =
      FailureMessage([&] { graph.AddChild(0, Bits({0, 1})); });
  EXPECT_NE(message.find("back to back"), std::string::npos) << message;
}

TEST_F(GraphInvariantsTest, RejectsCompletedSetAlgebraViolation) {
  LearningGraph graph = MakeValidGraph();
  // Node 3's parent (node 1) has completed course 0; node 3 now claims
  // {1}, so X_parent ⊄ X_child and no selection W gives X_parent ∪ W.
  LearningNode& child = LearningGraphTestPeer::MutableNode(graph, 3);
  child.completed = Bits({1});
  std::string message = FailureMessage([&] { graph.CheckInvariants(); });
  EXPECT_NE(message.find("does not contain its parent's"), std::string::npos)
      << message;
}

TEST_F(GraphInvariantsTest, RejectsOrphanedParentLink) {
  LearningGraph graph = MakeValidGraph();
  LearningNode& child = LearningGraphTestPeer::MutableNode(graph, 1);
  child.parent = kInvalidNodeId;  // non-root node with no parent
  FailureMessage([&] { graph.CheckInvariants(); });
}

TEST_F(GraphInvariantsTest, RejectsMixedBitsetUniverses) {
  LearningGraph graph = MakeValidGraph();
  LearningNode& child = LearningGraphTestPeer::MutableNode(graph, 1);
  child.completed = DynamicBitset(9);  // wrong universe size
  FailureMessage([&] { graph.CheckInvariants(); });
}

}  // namespace
}  // namespace coursenav
