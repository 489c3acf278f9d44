// KNN queries (extension beyond the paper's range-only evaluation):
// exactness of every searcher against the linear-scan oracle, pruning
// effectiveness, and edge cases. The kernel's list-at-a-time search
// (kernel/knn_search.h) is pinned here on its own, over one segment and
// over several segments sharing one heap.

#include "metric/knn.h"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarse_index.h"
#include "core/deadline.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/knn_search.h"
#include "test_util.h"

namespace topk {
namespace {

class KnnEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, size_t>> {};

TEST_P(KnnEquivalenceTest, AllSearchersMatchLinearScan) {
  const auto [k, j] = GetParam();
  const RankingStore store = testutil::MakeClusteredStore(k, 1000, 221);
  const BkTree bk = BkTree::BuildAll(&store);
  const MTree mt = MTree::BuildAll(&store);
  CoarseOptions coarse_options;
  coarse_options.theta_c = 0.3;
  const CoarseIndex coarse = CoarseIndex::Build(&store, coarse_options);

  const auto queries = testutil::MakeQueries(store, 15, 222);
  for (const PreparedQuery& query : queries) {
    const auto truth = LinearScanKnn(store, query, j);
    EXPECT_EQ(BkTreeKnn(bk, query, j), truth) << "BK k=" << k << " j=" << j;
    EXPECT_EQ(MTreeKnn(mt, query, j), truth) << "MT k=" << k << " j=" << j;
    EXPECT_EQ(coarse.Knn(query, j), truth) << "Coarse k=" << k << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnEquivalenceTest,
    ::testing::Combine(::testing::Values(5u, 10u),
                       ::testing::Values(size_t{1}, size_t{5}, size_t{20},
                                         size_t{100})));

TEST(KnnTest, LinearScanOrdering) {
  RankingStore store(3);
  store.AddUnchecked(std::vector<ItemId>{1, 2, 3});  // id 0
  store.AddUnchecked(std::vector<ItemId>{2, 1, 3});  // id 1, distance 2
  store.AddUnchecked(std::vector<ItemId>{1, 2, 3});  // id 2, duplicate
  store.AddUnchecked(std::vector<ItemId>{7, 8, 9});  // id 3, disjoint
  const PreparedQuery query(
      std::move(Ranking::Create({1, 2, 3})).ValueOrDie());
  const auto nn = LinearScanKnn(store, query, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0], (Neighbor{0, 0}));
  EXPECT_EQ(nn[1], (Neighbor{2, 0}));  // tie broken by id
  EXPECT_EQ(nn[2], (Neighbor{1, 2}));
}

TEST(KnnTest, JLargerThanCollectionReturnsEverything) {
  const RankingStore store = testutil::MakeClusteredStore(5, 50, 223);
  const BkTree bk = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 3, 224);
  for (const auto& query : queries) {
    const auto nn = BkTreeKnn(bk, query, 500);
    EXPECT_EQ(nn.size(), store.size());
    for (size_t i = 1; i < nn.size(); ++i) {
      EXPECT_LE(nn[i - 1].distance, nn[i].distance);
    }
  }
}

TEST(KnnTest, JZeroReturnsNothing) {
  const RankingStore store = testutil::MakeClusteredStore(5, 50, 225);
  const BkTree bk = BkTree::BuildAll(&store);
  const MTree mt = MTree::BuildAll(&store);
  const PreparedQuery query(store.Materialize(0));
  EXPECT_TRUE(BkTreeKnn(bk, query, 0).empty());
  EXPECT_TRUE(MTreeKnn(mt, query, 0).empty());
  EXPECT_TRUE(LinearScanKnn(store, query, 0).empty());
}

TEST(KnnTest, TreesPruneDistanceCallsForSmallJ) {
  const RankingStore store = testutil::MakeClusteredStore(10, 3000, 226);
  const BkTree bk = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 10, 227);
  Statistics stats;
  for (const auto& query : queries) BkTreeKnn(bk, query, 5, &stats);
  EXPECT_LT(stats.Get(Ticker::kDistanceCalls),
            queries.size() * store.size())
      << "KNN must not degenerate into a full scan";
}

TEST(KnnTest, NeighborDistancesAreExact) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 228);
  const MTree mt = MTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 5, 229);
  for (const auto& query : queries) {
    for (const Neighbor& neighbor : MTreeKnn(mt, query, 10)) {
      EXPECT_EQ(neighbor.distance,
                FootruleDistance(query.sorted_view(),
                                 store.sorted(neighbor.id)));
    }
  }
}

TEST(KnnTest, DuplicateHeavyCollection) {
  RankingStore store(5);
  const ItemId a[] = {1, 2, 3, 4, 5};
  const ItemId b[] = {1, 2, 3, 5, 4};
  for (int i = 0; i < 100; ++i) {
    store.AddUnchecked(a);
    store.AddUnchecked(b);
  }
  const BkTree bk = BkTree::BuildAll(&store);
  const PreparedQuery query(std::move(Ranking::Create(
                                std::vector<ItemId>(a, a + 5)))
                                .ValueOrDie());
  const auto nn = BkTreeKnn(bk, query, 150);
  ASSERT_EQ(nn.size(), 150u);
  // The 100 exact copies come first (distance 0, ids even), then 50 of
  // the swapped variant (distance 2).
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(nn[i].distance, 0u);
  for (size_t i = 100; i < 150; ++i) EXPECT_EQ(nn[i].distance, 2u);
}

// One indexed slice of a store: its rows, their inverted index, and the
// id each row answers with.
struct Segment {
  RankingStore store;
  PlainInvertedIndex index;
  std::vector<RankingId> ids;
};

// The store split round-robin into `parts` segments, so the ids of one
// segment interleave with the others' and (distance, id) ties cross
// segments.
std::vector<Segment> SplitRoundRobin(const RankingStore& store,
                                     size_t parts) {
  std::vector<Segment> segments;
  segments.reserve(parts);
  for (size_t s = 0; s < parts; ++s) {
    segments.push_back(Segment{RankingStore(store.k()), {}, {}});
  }
  for (RankingId id = 0; id < store.size(); ++id) {
    Segment& segment = segments[id % parts];
    segment.store.AddUnchecked(store.view(id).items());
    segment.ids.push_back(id);
  }
  for (Segment& segment : segments) {
    segment.index = PlainInvertedIndex::Build(segment.store);
  }
  return segments;
}

// The serving paths' k-NN: the index search over every segment into one
// heap, then the exhaustive rerun when the heap cannot prove the answer.
std::vector<Neighbor> IndexKnn(const std::vector<Segment>& segments,
                               const PreparedQuery& query, size_t j,
                               Statistics* stats = nullptr,
                               QueryControl* control = nullptr) {
  FilterScratch scratch;
  FootruleValidator validator;
  NeighborHeap heap(j);
  for (const Segment& segment : segments) {
    const auto id_of = [&segment](RankingId local) {
      return segment.ids[local];
    };
    KnnSearchSegment(segment.index, segment.store, query.view(), id_of,
                     &validator, &scratch, &heap, stats, control);
  }
  if (!KnnIndexProvesAnswer(heap, query.k())) {
    heap.Reset(j);
    for (const Segment& segment : segments) {
      const auto id_of = [&segment](RankingId local) {
        return segment.ids[local];
      };
      KnnScanSegment(segment.store, query.view(), id_of, &validator, &heap,
                     stats, control);
    }
  }
  return std::move(heap).Finish();
}

TEST(KnnSearchTest, IndexSearchMatchesLinearScanOverSegments) {
  for (const uint32_t k : {5u, 10u}) {
    // Every row twice, so equal distances are common and their order is
    // decided by id across segments.
    const RankingStore base = testutil::MakeClusteredStore(k, 400, 231 + k);
    RankingStore store(k);
    for (int copy = 0; copy < 2; ++copy) {
      for (RankingId id = 0; id < base.size(); ++id) {
        store.AddUnchecked(base.view(id).items());
      }
    }
    auto queries = testutil::MakeQueries(base, 20, 232 + k);
    for (const RankingId row : {0u, 17u, 250u}) {
      queries.emplace_back(base.Materialize(row));
    }
    for (const size_t parts : {size_t{1}, size_t{3}}) {
      const std::vector<Segment> segments = SplitRoundRobin(store, parts);
      for (const size_t j :
           {size_t{1}, size_t{2}, size_t{10}, size_t{37}, store.size() + 3}) {
        for (const PreparedQuery& query : queries) {
          ASSERT_EQ(IndexKnn(segments, query, j),
                    LinearScanKnn(store, query, j))
              << "k=" << k << " parts=" << parts << " j=" << j;
        }
      }
    }
  }
}

TEST(KnnSearchTest, StopRuleLeavesListsUnreadAndRowsUntouched) {
  const RankingStore store = testutil::MakeClusteredStore(10, 3000, 233);
  const std::vector<Segment> segments = SplitRoundRobin(store, 1);
  Statistics all;
  for (RankingId row = 0; row < 3000; row += 300) {
    const PreparedQuery query(store.Materialize(row));
    Statistics stats;
    EXPECT_EQ(IndexKnn(segments, query, 10, &stats),
              LinearScanKnn(store, query, 10));
    EXPECT_LT(stats.Get(Ticker::kDistanceCalls), store.size()) << row;
    all.MergeFrom(stats);
  }
  EXPECT_GT(all.Get(Ticker::kListsDropped), 0u);
}

TEST(KnnSearchTest, DisjointQueryFallsBackToTheScan) {
  // No query item occurs in any row: every list is empty, the heap stays
  // empty, and every row sits at dmax, so the answer is the j lowest ids.
  const RankingStore store = testutil::MakeClusteredStore(5, 200, 234);
  const std::vector<Segment> segments = SplitRoundRobin(store, 3);
  const PreparedQuery query(std::move(Ranking::Create(
                                {90001, 90002, 90003, 90004, 90005}))
                                .ValueOrDie());
  for (const size_t j : {size_t{1}, size_t{10}, store.size() + 3}) {
    const std::vector<Neighbor> nn = IndexKnn(segments, query, j);
    EXPECT_EQ(nn, LinearScanKnn(store, query, j));
    ASSERT_EQ(nn.size(), std::min(j, store.size()));
    for (size_t i = 0; i < nn.size(); ++i) {
      EXPECT_EQ(nn[i], (Neighbor{static_cast<RankingId>(i), MaxDistance(5)}));
    }
  }
}

TEST(KnnSearchTest, MaskedRowsCostNoDistanceCall) {
  const RankingStore store = testutil::MakeClusteredStore(5, 300, 235);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  const PreparedQuery query(store.Materialize(7));
  FilterScratch scratch;
  FootruleValidator validator;
  NeighborHeap heap(10);
  Statistics stats;
  const auto masked = [](RankingId) { return kInvalidRankingId; };
  KnnSearchSegment(index, store, query.view(), masked, &validator, &scratch,
                   &heap, &stats);
  EXPECT_FALSE(KnnIndexProvesAnswer(heap, 5));
  KnnScanSegment(store, query.view(), masked, &validator, &heap, &stats);
  EXPECT_TRUE(std::move(heap).Finish().empty());
  EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), 0u);
}

TEST(KnnSearchTest, ExpiredDeadlineAndCancelStopBothLoops) {
  const RankingStore store = testutil::MakeClusteredStore(5, 300, 236);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  const auto identity = [](RankingId id) { return id; };
  const PreparedQuery query(store.Materialize(3));
  FilterScratch scratch;
  FootruleValidator validator;
  NeighborHeap heap(10);

  QueryControl expired(Deadline::AfterMillis(-1.0));
  KnnSearchSegment(index, store, query.view(), identity, &validator,
                   &scratch, &heap, nullptr, &expired);
  EXPECT_TRUE(expired.stopped());
  EXPECT_FALSE(expired.cancelled());
  EXPECT_FALSE(heap.full());

  CancelToken token;
  token.Cancel();
  QueryControl cancelled(Deadline::Infinite(), &token);
  heap.Reset(10);
  KnnScanSegment(store, query.view(), identity, &validator, &heap, nullptr,
                 &cancelled);
  EXPECT_TRUE(cancelled.stopped());
  EXPECT_TRUE(cancelled.cancelled());
  EXPECT_FALSE(heap.full());
}

TEST(KnnSearchTest, NeighborHeapKeepsTheBestJ) {
  NeighborHeap heap(3);
  EXPECT_EQ(heap.Bound(), std::numeric_limits<RawDistance>::max());
  heap.Offer(5, 4);
  heap.Offer(1, 9);
  heap.Offer(7, 4);
  EXPECT_TRUE(heap.full());
  EXPECT_EQ(heap.Bound(), 9u);
  heap.Offer(9, 9);  // ties the worst but has the larger id: rejected
  heap.Offer(0, 9);  // ties the worst with a smaller id: admitted
  EXPECT_EQ(heap.Bound(), 9u);
  heap.Offer(2, 1);
  EXPECT_EQ(heap.Bound(), 4u);
  EXPECT_EQ(std::move(heap).Finish(),
            (std::vector<Neighbor>{{2, 1}, {5, 4}, {7, 4}}));
  NeighborHeap none(0);
  none.Offer(1, 1);
  EXPECT_TRUE(KnnIndexProvesAnswer(none, 5));
  EXPECT_TRUE(std::move(none).Finish().empty());
}

}  // namespace
}  // namespace topk
