// Footrule distance kernel: worked examples, metric properties, kernel
// equivalence, and threshold conversions.

#include "core/footrule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/ranking.h"
#include "core/rng.h"
#include "core/types.h"

namespace topk {
namespace {

RankingStore MakeRandomStore(uint32_t k, size_t n, uint32_t domain,
                             uint64_t seed) {
  Rng rng(seed);
  RankingStore store(k);
  std::vector<ItemId> items;
  for (size_t i = 0; i < n; ++i) {
    items.clear();
    while (items.size() < k) {
      const auto item = static_cast<ItemId>(rng.Below(domain));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    store.AddUnchecked(items);
  }
  return store;
}

TEST(FootruleTest, IdenticalRankingsHaveZeroDistance) {
  RankingStore store(5);
  const ItemId row[] = {3, 1, 4, 15, 9};
  store.AddUnchecked(row);
  store.AddUnchecked(row);
  EXPECT_EQ(FootruleDistance(store.sorted(0), store.sorted(1)), 0u);
}

TEST(FootruleTest, DisjointRankingsReachMaxDistance) {
  RankingStore store(5);
  const ItemId a[] = {0, 1, 2, 3, 4};
  const ItemId b[] = {10, 11, 12, 13, 14};
  store.AddUnchecked(a);
  store.AddUnchecked(b);
  EXPECT_EQ(FootruleDistance(store.sorted(0), store.sorted(1)),
            MaxDistance(5));
  EXPECT_EQ(MaxDistance(5), 30u);
}

TEST(FootruleTest, SingleSwapCostsTwo) {
  RankingStore store(4);
  const ItemId a[] = {1, 2, 3, 4};
  const ItemId b[] = {2, 1, 3, 4};
  store.AddUnchecked(a);
  store.AddUnchecked(b);
  EXPECT_EQ(FootruleDistance(store.sorted(0), store.sorted(1)), 2u);
}

TEST(FootruleTest, TailReplacementCost) {
  // Replacing the last item: old item pays |k-1 - k| = 1 from each side's
  // perspective => total 2 for last-position replacement.
  RankingStore store(4);
  const ItemId a[] = {1, 2, 3, 4};
  const ItemId b[] = {1, 2, 3, 9};
  store.AddUnchecked(a);
  store.AddUnchecked(b);
  EXPECT_EQ(FootruleDistance(store.sorted(0), store.sorted(1)), 2u);
}

TEST(FootrulePaperExampleTest, Section3WorkedExample) {
  // Section 3 of the paper: tau1 = [2,5,6,4,1], tau2 = [1,4,5],
  // tau3 = [0,8,4,5,7], 1-based ranks, absent rank l = 6:
  // F(tau1,tau2) = 15, F(tau2,tau3) = 17, F(tau1,tau3) = 22.
  const std::vector<ItemId> tau1 = {2, 5, 6, 4, 1};
  const std::vector<ItemId> tau2 = {1, 4, 5};
  const std::vector<ItemId> tau3 = {0, 8, 4, 5, 7};
  EXPECT_EQ(GeneralizedFootrule(tau1, tau2, 6, 1), 15u);
  EXPECT_EQ(GeneralizedFootrule(tau2, tau3, 6, 1), 17u);
  EXPECT_EQ(GeneralizedFootrule(tau1, tau3, 6, 1), 22u);
}

TEST(FootruleTest, AgreesWithGeneralizedForm) {
  // The fixed-k kernel must agree with the generalized form at
  // absent_rank = k, first_rank = 0.
  const RankingStore store = MakeRandomStore(8, 60, 40, 77);
  for (RankingId a = 0; a < 20; ++a) {
    for (RankingId b = 0; b < 20; ++b) {
      const auto va = store.view(a).items();
      const auto vb = store.view(b).items();
      EXPECT_EQ(FootruleDistance(store.sorted(a), store.sorted(b)),
                GeneralizedFootrule({va.begin(), va.end()},
                                    {vb.begin(), vb.end()}, 8, 0));
    }
  }
}

TEST(FootruleTest, MergeKernelMatchesNaiveKernel) {
  const RankingStore store = MakeRandomStore(10, 100, 60, 42);
  for (RankingId a = 0; a < store.size(); ++a) {
    for (RankingId b = a; b < store.size(); ++b) {
      EXPECT_EQ(FootruleDistance(store.sorted(a), store.sorted(b)),
                FootruleDistanceNaive(store.view(a), store.view(b)))
          << "pair " << a << "," << b;
    }
  }
}

class FootruleMetricPropertyTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(FootruleMetricPropertyTest, SymmetryIdentityTriangle) {
  const uint32_t k = GetParam();
  const RankingStore store = MakeRandomStore(k, 40, 3 * k, 1000 + k);
  for (RankingId a = 0; a < store.size(); ++a) {
    EXPECT_EQ(FootruleDistance(store.sorted(a), store.sorted(a)), 0u);
    for (RankingId b = a + 1; b < store.size(); ++b) {
      const RawDistance dab =
          FootruleDistance(store.sorted(a), store.sorted(b));
      EXPECT_EQ(dab, FootruleDistance(store.sorted(b), store.sorted(a)));
      EXPECT_LE(dab, MaxDistance(k));
      // Regularity: distance zero iff the contents coincide (random draws
      // can legitimately repeat, especially at tiny k).
      const bool same_content =
          std::equal(store.view(a).items().begin(),
                     store.view(a).items().end(),
                     store.view(b).items().begin());
      EXPECT_EQ(dab == 0, same_content);
      for (RankingId c = 0; c < store.size(); c += 7) {
        const RawDistance dac =
            FootruleDistance(store.sorted(a), store.sorted(c));
        const RawDistance dbc =
            FootruleDistance(store.sorted(b), store.sorted(c));
        EXPECT_LE(dab, dac + dbc) << "triangle violated";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, FootruleMetricPropertyTest,
                         ::testing::Values(2u, 3u, 5u, 10u, 15u, 20u, 25u));

TEST(ThresholdConversionTest, RawThresholdBoundaries) {
  // k = 10 => dmax = 110.
  EXPECT_EQ(RawThreshold(0.0, 10), 0u);
  EXPECT_EQ(RawThreshold(1.0, 10), 110u);
  EXPECT_EQ(RawThreshold(0.1, 10), 11u);
  EXPECT_EQ(RawThreshold(0.2, 10), 22u);
  EXPECT_EQ(RawThreshold(0.3, 10), 33u);
  EXPECT_EQ(RawThreshold(2.0, 10), 110u);  // clamped
}

TEST(ThresholdConversionTest, RawThresholdIsExactCutoff) {
  // Every raw distance d qualifies under theta iff d <= RawThreshold.
  for (uint32_t k : {5u, 10u, 20u}) {
    for (double theta : {0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.77}) {
      const RawDistance cut = RawThreshold(theta, k);
      for (RawDistance d = 0; d <= MaxDistance(k); ++d) {
        const bool qualifies = NormalizeDistance(d, k) <= theta + 1e-12;
        EXPECT_EQ(d <= cut, qualifies) << "k=" << k << " theta=" << theta
                                       << " d=" << d;
      }
    }
  }
}

TEST(ThresholdConversionTest, NormalizeRoundTrip) {
  EXPECT_DOUBLE_EQ(NormalizeDistance(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeDistance(110, 10), 1.0);
  EXPECT_DOUBLE_EQ(NormalizeDistance(55, 10), 0.5);
}

}  // namespace
}  // namespace topk
