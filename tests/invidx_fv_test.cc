// Filter & Validate and the drop policy: exactness against brute force
// across thresholds, k values and data shapes; the Lemma 2 soundness guard.

#include "invidx/filter_validate.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/bounds.h"
#include "invidx/drop_policy.h"
#include "test_util.h"

namespace topk {
namespace {

// SelectLists into a fresh buffer, for assertions on the kept positions.
template <typename ListLength>
std::vector<uint32_t> Selected(RankingView query, RawDistance theta_raw,
                               DropMode mode, const ListLength& list_length) {
  std::vector<uint32_t> positions;
  SelectLists(query, theta_raw, mode, list_length, &positions);
  return positions;
}

class FvEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double, int>> {};

TEST_P(FvEquivalenceTest, MatchesBruteForce) {
  const auto [k, theta, drop_int] = GetParam();
  const auto drop = static_cast<DropMode>(drop_int);
  const RankingStore store = testutil::MakeClusteredStore(k, 1500, 21 + k);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  FilterValidateEngine engine(&store, &index, FilterValidateOptions{drop});
  const auto queries = testutil::MakeQueries(store, 30, 5);
  const RawDistance theta_raw = RawThreshold(theta, k);
  for (const PreparedQuery& query : queries) {
    EXPECT_EQ(engine.Query(query, theta_raw),
              testutil::BruteForce(store, query, theta_raw))
        << "k=" << k << " theta=" << theta
        << " drop=" << DropModeName(drop);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FvEquivalenceTest,
    ::testing::Combine(::testing::Values(5u, 10u, 20u),
                       ::testing::Values(0.0, 0.1, 0.2, 0.3),
                       ::testing::Values(0, 1, 2)));

TEST(FvTest, FindsExactDuplicatesAtThetaZero) {
  RankingStore store(5);
  const ItemId row[] = {1, 2, 3, 4, 5};
  const ItemId other[] = {9, 8, 7, 6, 5};
  store.AddUnchecked(row);
  store.AddUnchecked(other);
  store.AddUnchecked(row);  // duplicate
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  FilterValidateEngine engine(&store, &index);
  PreparedQuery query(std::move(Ranking::Create({1, 2, 3, 4, 5})).ValueOrDie());
  EXPECT_EQ(engine.Query(query, 0), (std::vector<RankingId>{0, 2}));
}

TEST(FvTest, QueryWithUnknownItemsReturnsEmpty) {
  const RankingStore store = testutil::MakeUniformStore(5, 100, 50, 3);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  FilterValidateEngine engine(&store, &index);
  PreparedQuery query(
      std::move(Ranking::Create({900, 901, 902, 903, 904})).ValueOrDie());
  EXPECT_TRUE(engine.Query(query, RawThreshold(0.3, 5)).empty());
}

TEST(FvTest, StatsCountCandidatesAndDistanceCalls) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 8);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  FilterValidateEngine engine(&store, &index);
  const auto queries = testutil::MakeQueries(store, 5, 6);
  Statistics stats;
  for (const auto& query : queries) {
    engine.Query(query, RawThreshold(0.2, 10), &stats);
  }
  // F&V validates every candidate exactly once.
  EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), stats.Get(Ticker::kCandidates));
  EXPECT_GT(stats.Get(Ticker::kPostingEntriesScanned), 0u);
}

TEST(FvDropTest, DropReducesScannedEntries) {
  const RankingStore store = testutil::MakeClusteredStore(10, 2000, 9);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  FilterValidateEngine plain_engine(&store, &index);
  FilterValidateEngine drop_engine(
      &store, &index, FilterValidateOptions{DropMode::kConservative});
  const auto queries = testutil::MakeQueries(store, 20, 10);
  Statistics plain_stats;
  Statistics drop_stats;
  const RawDistance theta_raw = RawThreshold(0.1, 10);
  for (const auto& query : queries) {
    plain_engine.Query(query, theta_raw, &plain_stats);
    drop_engine.Query(query, theta_raw, &drop_stats);
  }
  EXPECT_LT(drop_stats.Get(Ticker::kPostingEntriesScanned),
            plain_stats.Get(Ticker::kPostingEntriesScanned));
  EXPECT_GT(drop_stats.Get(Ticker::kListsDropped), 0u);
}

TEST(DropPolicyTest, NoDropAccessesAllLists) {
  PreparedQuery query(
      std::move(Ranking::Create({4, 9, 1, 7, 3})).ValueOrDie());
  const auto lists =
      Selected(query.view(), 10, DropMode::kNone,
               [](ItemId) -> size_t { return 1; });
  EXPECT_EQ(lists.size(), 5u);
}

TEST(DropPolicyTest, ConservativeKeepsKMinusWPlusOne) {
  PreparedQuery query(
      std::move(Ranking::Create({4, 9, 1, 7, 3})).ValueOrDie());
  const uint32_t k = 5;
  for (RawDistance theta = 0; theta < MaxDistance(k); ++theta) {
    const auto lists =
        Selected(query.view(), theta, DropMode::kConservative,
                 [](ItemId item) -> size_t { return item; });
    const uint32_t w = MinOverlap(k, theta);
    if (w <= 1) {
      EXPECT_EQ(lists.size(), k);
    } else {
      EXPECT_EQ(lists.size(), k - w + 1);
    }
  }
}

TEST(DropPolicyTest, DropsLongestListsFirst) {
  PreparedQuery query(
      std::move(Ranking::Create({4, 9, 1, 7, 3})).ValueOrDie());
  // Lengths: item 9 -> 90 (longest), item 7 -> 70, etc.
  const auto lists = Selected(query.view(), /*theta=*/2,
                              DropMode::kConservative,
                              [](ItemId item) -> size_t {
                                return item * 10;
                              });
  // theta=2 => w = 4 => keep 2 lists: the two shortest (items 1 and 3 at
  // positions 2 and 4).
  EXPECT_EQ(lists, (std::vector<uint32_t>{2, 4}));
}

TEST(DropPolicyTest, RefinedKeepsTopWPosition) {
  PreparedQuery query(
      std::move(Ranking::Create({4, 9, 1, 7, 3})).ValueOrDie());
  // theta = 0 => w = 5 (exact match), refinement sound (0 <= L(5,5)+1).
  // One list survives and it may be any position (all are top-w).
  const auto lists = Selected(query.view(), 0, DropMode::kPositionRefined,
                              [](ItemId item) -> size_t {
                                return item;
                              });
  EXPECT_EQ(lists.size(), 1u);
}

// The heart of the Lemma 2 correction: exhaustively verify on a small
// universe that the selected lists never miss a true result, for every
// threshold — including the regime where the unguarded k-w refinement
// would be unsound.
class DropPolicyExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(DropPolicyExhaustiveTest, SelectedListsCoverAllResults) {
  const auto mode = static_cast<DropMode>(GetParam());
  const uint32_t k = 3;
  const uint32_t universe = 6;
  // All 120 permutations of 3 out of 6 items.
  RankingStore store(k);
  for (ItemId a = 0; a < universe; ++a) {
    for (ItemId b = 0; b < universe; ++b) {
      for (ItemId c = 0; c < universe; ++c) {
        if (a != b && b != c && a != c) {
          store.AddUnchecked(std::vector<ItemId>{a, b, c});
        }
      }
    }
  }
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);

  for (RankingId qid = 0; qid < store.size(); qid += 7) {
    const PreparedQuery query(store.Materialize(qid));
    for (RawDistance theta = 0; theta < MaxDistance(k); ++theta) {
      const auto kept =
          Selected(query.view(), theta, mode,
                   [&index](ItemId item) { return index.list_length(item); });
      // Union of kept lists.
      std::vector<bool> reachable(store.size(), false);
      for (uint32_t pos : kept) {
        for (RankingId id : index.list(query.view()[pos])) {
          reachable[id] = true;
        }
      }
      for (RankingId id : testutil::BruteForce(store, query, theta)) {
        EXPECT_TRUE(reachable[id])
            << "mode=" << DropModeName(mode) << " theta=" << theta
            << " misses result " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DropPolicyExhaustiveTest,
                         ::testing::Values(0, 1, 2));

TEST(DropPolicyTest, UnguardedRefinementWouldMissResults) {
  // Documentation of the counterexample requiring the guard (DESIGN.md):
  // k=3, query [a,b,c]; theta = L(3,2) + 2 = 4 keeps w = 2. Dropping to
  // k - w = 1 list can miss an overlap-2 result whose common items are
  // *not* in the top-2 of both rankings.
  const uint32_t k = 3;
  const RawDistance theta = 4;
  ASSERT_EQ(MinOverlap(k, theta), 2u);
  // q = [0, 1, 2]; result candidate tau = [9, 1, 2]: common {1, 2} at
  // positions (1,2) of both => F = (3-0)+(3-0) ... compute exactly:
  RankingStore store(k);
  store.AddUnchecked(std::vector<ItemId>{9, 1, 2});
  const PreparedQuery query(
      std::move(Ranking::Create({0, 1, 2})).ValueOrDie());
  const RawDistance d =
      FootruleDistance(query.sorted_view(), store.sorted(0));
  EXPECT_EQ(d, 6u);  // item 0: 3; item 9: 3; items 1, 2 matched: 0.
  // With theta = 6 (same w bracket: L(3,1)=6 <= 6 => w = 1 ... so use the
  // bracket where it bites): L(3,2) = 2, so theta in [2, 5] keeps w = 2,
  // and the cheapest non-top overlap-2 config costs L + 2 = 4 <= theta.
  RankingStore store2(k);
  store2.AddUnchecked(std::vector<ItemId>{1, 2, 9});  // common {1,2}@(0,1)
  const RawDistance d2 =
      FootruleDistance(query.sorted_view(), store2.sorted(0));
  // q: 0@0, 1@1, 2@2; tau: 1@0, 2@1, 9@2 => |1-0|+|2-1|+(3-0)+(3-2) = 6.
  EXPECT_EQ(d2, 6u);
  // The guard in SelectLists refuses the k-w refinement for theta = 4
  // (L(3,2)+1 = 3 < 4), falling back to k-w+1 = 2 lists.
  const auto kept = Selected(query.view(), 4, DropMode::kPositionRefined,
                             [](ItemId) -> size_t { return 1; });
  EXPECT_EQ(kept.size(), 2u);
}

}  // namespace
}  // namespace topk
