// Google-benchmark microbenches for the hot-path primitives: course-set
// algebra, prerequisite evaluation, option-set computation, selection
// enumeration, and requirement credit allocation (counting fast path vs.
// the two max-flow solvers).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/combinations.h"
#include "core/enrollment.h"
#include "data/brandeis_cs.h"
#include "requirements/degree_requirement.h"
#include "util/random.h"
#include "util/simd/simd.h"

namespace coursenav {
namespace {

const data::BrandeisDataset& Dataset() {
  static const data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  return dataset;
}

DynamicBitset RandomSet(const Catalog& catalog, Random& rng, double density) {
  DynamicBitset out = catalog.NewCourseSet();
  for (int i = 0; i < catalog.size(); ++i) {
    if (rng.Bernoulli(density)) out.set(i);
  }
  return out;
}

void BM_BitsetUnion(benchmark::State& state) {
  Random rng(1);
  const Catalog& catalog = Dataset().catalog;
  DynamicBitset a = RandomSet(catalog, rng, 0.3);
  DynamicBitset b = RandomSet(catalog, rng, 0.3);
  for (auto _ : state) {
    DynamicBitset c = a;
    c |= b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitsetUnion);

void BM_BitsetSubsetTest(benchmark::State& state) {
  Random rng(2);
  const Catalog& catalog = Dataset().catalog;
  DynamicBitset a = RandomSet(catalog, rng, 0.2);
  DynamicBitset b = RandomSet(catalog, rng, 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IsSubsetOf(b));
  }
}
BENCHMARK(BM_BitsetSubsetTest);

void BM_BitsetHash(benchmark::State& state) {
  Random rng(3);
  DynamicBitset a = RandomSet(Dataset().catalog, rng, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Hash());
  }
}
BENCHMARK(BM_BitsetHash);

void BM_CompiledPrereqEval(benchmark::State& state) {
  Random rng(4);
  const data::BrandeisDataset& dataset = Dataset();
  DynamicBitset completed = RandomSet(dataset.catalog, rng, 0.3);
  // A course with a two-term conjunctive prerequisite.
  CourseId course = *dataset.catalog.FindByCode("COSI30A");
  const expr::CompiledExpr& prereq = dataset.catalog.compiled_prereq(course);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prereq.Eval(completed));
  }
}
BENCHMARK(BM_CompiledPrereqEval);

void BM_ComputeOptions(benchmark::State& state) {
  Random rng(5);
  const data::BrandeisDataset& dataset = Dataset();
  ExplorationOptions options;
  DynamicBitset completed = RandomSet(dataset.catalog, rng, 0.25);
  Term term(Season::kFall, 2013);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeOptions(dataset.catalog, dataset.schedule.OfferedIn(term),
                       completed, options.avoid_courses));
  }
}
BENCHMARK(BM_ComputeOptions);

void BM_SelectionEnumeration(benchmark::State& state) {
  const int option_count = static_cast<int>(state.range(0));
  std::vector<int> ids;
  for (int i = 0; i < option_count; ++i) ids.push_back(i);
  DynamicBitset options = DynamicBitset::FromIndices(38, ids);
  for (auto _ : state) {
    int subsets = 0;
    ForEachSelection(options, 1, 3, [&](const DynamicBitset&) {
      ++subsets;
      return true;
    });
    benchmark::DoNotOptimize(subsets);
  }
}
BENCHMARK(BM_SelectionEnumeration)->Arg(4)->Arg(8)->Arg(12);

void BM_CreditedSlotsDisjointFastPath(benchmark::State& state) {
  Random rng(6);
  const data::BrandeisDataset& dataset = Dataset();
  DynamicBitset completed = RandomSet(dataset.catalog, rng, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset.cs_major->CreditedSlots(completed));
  }
}
BENCHMARK(BM_CreditedSlotsDisjointFastPath);

std::shared_ptr<const DegreeRequirement> OverlappingRequirement(
    FlowAlgorithm algorithm) {
  const data::BrandeisDataset& dataset = Dataset();
  // Overlapping groups force the max-flow allocation path: systems-flavored
  // electives count toward either bucket but credit only one.
  std::vector<std::string> systems = {"COSI21B", "COSI35A", "COSI108A",
                                      "COSI117A", "COSI118A", "COSI123A"};
  std::vector<std::string> breadth = {"COSI108A", "COSI117A", "COSI118A",
                                      "COSI123A", "COSI101A", "COSI107A",
                                      "COSI122A"};
  auto req = DegreeRequirement::Builder(&dataset.catalog)
                 .AddGroup("systems", systems, 3)
                 .AddGroup("breadth", breadth, 4)
                 .Build(algorithm);
  return *req;
}

void BM_CreditedSlotsFordFulkerson(benchmark::State& state) {
  Random rng(7);
  auto req = OverlappingRequirement(FlowAlgorithm::kFordFulkerson);
  DynamicBitset completed = RandomSet(Dataset().catalog, rng, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(req->CreditedSlots(completed));
  }
}
BENCHMARK(BM_CreditedSlotsFordFulkerson);

void BM_CreditedSlotsDinic(benchmark::State& state) {
  Random rng(7);
  auto req = OverlappingRequirement(FlowAlgorithm::kDinic);
  DynamicBitset completed = RandomSet(Dataset().catalog, rng, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(req->CreditedSlots(completed));
  }
}
BENCHMARK(BM_CreditedSlotsDinic);

// --- Fused set-algebra kernels: portable scalar table vs the runtime-
// dispatched table, at universe sizes of 1, 2, 16, and 160 words (64,
// 128, 1024, and 10240 courses — the 38-course Brandeis world packs into
// 1 word; 160 words is the 10k synthetic-catalog scale). ---

std::vector<uint64_t> RandomWords(Random& rng, size_t n, double density) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    w = 0;
    for (int b = 0; b < 64; ++b) {
      if (rng.Bernoulli(density)) w |= uint64_t{1} << b;
    }
  }
  return words;
}

const simd::Kernels& KernelsFor(const benchmark::State& state) {
  return state.range(1) != 0 ? simd::Active() : simd::Scalar();
}

void SetKernelLabel(benchmark::State& state) {
  state.SetLabel(state.range(1) != 0 ? simd::Active().name : "scalar");
}

void BM_KernelAndNotPopcount(benchmark::State& state) {
  Random rng(11);
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::Kernels& k = KernelsFor(state);
  SetKernelLabel(state);
  std::vector<uint64_t> a = RandomWords(rng, n, 0.3);
  std::vector<uint64_t> b = RandomWords(rng, n, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.and_not_popcount(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelAndNotPopcount)
    ->ArgsProduct({{1, 2, 16, 160}, {0, 1}});

void BM_KernelSubsetOf(benchmark::State& state) {
  Random rng(12);
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::Kernels& k = KernelsFor(state);
  SetKernelLabel(state);
  std::vector<uint64_t> b = RandomWords(rng, n, 0.6);
  std::vector<uint64_t> a = RandomWords(rng, n, 0.5);
  for (size_t i = 0; i < n; ++i) a[i] &= b[i];  // subset holds: full scan
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.subset_of(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelSubsetOf)->ArgsProduct({{1, 2, 16, 160}, {0, 1}});

void BM_KernelUnionInplace(benchmark::State& state) {
  Random rng(13);
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::Kernels& k = KernelsFor(state);
  SetKernelLabel(state);
  std::vector<uint64_t> a = RandomWords(rng, n, 0.3);
  std::vector<uint64_t> b = RandomWords(rng, n, 0.3);
  for (auto _ : state) {
    k.union_inplace(a.data(), b.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_KernelUnionInplace)->ArgsProduct({{1, 2, 16, 160}, {0, 1}});

void BM_KernelCountUnsatisfiedLiterals(benchmark::State& state) {
  Random rng(14);
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::Kernels& k = KernelsFor(state);
  SetKernelLabel(state);
  constexpr size_t kClauses = 12;
  std::vector<uint64_t> pos;
  for (size_t c = 0; c < kClauses; ++c) {
    std::vector<uint64_t> row = RandomWords(rng, n, 0.05);
    pos.insert(pos.end(), row.begin(), row.end());
  }
  std::vector<uint64_t> completed = RandomWords(rng, n, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.count_unsatisfied_literals(
        pos.data(), nullptr, n, kClauses, completed.data()));
  }
}
BENCHMARK(BM_KernelCountUnsatisfiedLiterals)
    ->ArgsProduct({{1, 2, 16, 160}, {0, 1}});

}  // namespace
}  // namespace coursenav

BENCHMARK_MAIN();
