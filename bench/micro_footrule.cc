// Microbenchmarks (google-benchmark) for the distance kernels and the
// filter-phase primitives — the design-choice evidence behind the
// merge-based Footrule kernel and the cost-model calibration constants.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/footrule.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "invidx/visited_set.h"

namespace topk {
namespace {

RankingStore MakeStore(uint32_t k, size_t n, uint64_t seed) {
  Rng rng(seed);
  RankingStore store(k);
  std::vector<ItemId> items;
  for (size_t i = 0; i < n; ++i) {
    items.clear();
    while (items.size() < k) {
      const auto item = static_cast<ItemId>(rng.Below(8 * k));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    store.AddUnchecked(items);
  }
  return store;
}

void BM_FootruleMerge(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  const RankingStore store = MakeStore(k, 1024, 1);
  Rng rng(2);
  for (auto _ : state) {
    const auto a = static_cast<RankingId>(rng.Below(store.size()));
    const auto b = static_cast<RankingId>(rng.Below(store.size()));
    benchmark::DoNotOptimize(
        FootruleDistance(store.sorted(a), store.sorted(b)));
  }
}
BENCHMARK(BM_FootruleMerge)->Arg(5)->Arg(10)->Arg(15)->Arg(20)->Arg(25);

void BM_FootruleNaive(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  const RankingStore store = MakeStore(k, 1024, 1);
  Rng rng(2);
  for (auto _ : state) {
    const auto a = static_cast<RankingId>(rng.Below(store.size()));
    const auto b = static_cast<RankingId>(rng.Below(store.size()));
    benchmark::DoNotOptimize(
        FootruleDistanceNaive(store.view(a), store.view(b)));
  }
}
BENCHMARK(BM_FootruleNaive)->Arg(5)->Arg(10)->Arg(15)->Arg(20)->Arg(25);

void BM_VisitedSetMergeDedup(benchmark::State& state) {
  // The filter phase's inner loop: union k id-sorted lists with epoch
  // deduplication.
  const size_t list_length = static_cast<size_t>(state.range(0));
  constexpr uint32_t kUniverse = 1u << 20;
  Rng rng(3);
  std::vector<std::vector<RankingId>> lists(10);
  for (auto& list : lists) {
    list.resize(list_length);
    for (auto& id : list) id = static_cast<RankingId>(rng.Below(kUniverse));
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  VisitedSet visited(kUniverse);
  std::vector<RankingId> candidates;
  for (auto _ : state) {
    visited.NextEpoch();
    candidates.clear();
    for (const auto& list : lists) {
      for (RankingId id : list) {
        if (!visited.TestAndSet(id)) candidates.push_back(id);
      }
    }
    benchmark::DoNotOptimize(candidates.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(10 * list_length));
}
BENCHMARK(BM_VisitedSetMergeDedup)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
