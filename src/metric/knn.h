// k-nearest-neighbour queries over the ranking indexes.
//
// The paper evaluates range queries only, but its related-work section
// frames KNN as the sibling problem and every structure here supports it
// naturally: best-first search with a shrinking distance bound. The
// result is the j rankings closest to the query (ties broken by id), with
// the same exactness guarantees as the range API.
//
// All searchers share the contract: results sorted by (distance, id),
// exactly min(j, n) entries. They keep their j best in the one bounded
// NeighborHeap of kernel/knn_search.h (which also defines Neighbor); the
// inverted-index k-NN the serving paths run (MutableStore,
// ResilientReader) is that header's KnnSearchSegment.

#ifndef TOPK_METRIC_KNN_H_
#define TOPK_METRIC_KNN_H_

#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/knn_search.h"
#include "metric/bk_tree.h"
#include "metric/m_tree.h"

namespace topk {

/// Exhaustive baseline (and differential-test oracle): one FootruleDistance
/// per row.
std::vector<Neighbor> LinearScanKnn(const RankingStore& store,
                                    const PreparedQuery& query, size_t j,
                                    Statistics* stats = nullptr);

/// BK-tree KNN: depth-first traversal keeping the j best seen; a subtree
/// is entered only while |d(q, node) - edge| can still beat the current
/// j-th best distance. Degenerates to a full scan when j >= n.
std::vector<Neighbor> BkTreeKnn(const BkTree& tree,
                                const PreparedQuery& query, size_t j,
                                Statistics* stats = nullptr);

/// M-tree KNN: best-first descent ordered by the optimistic subtree bound
/// max(0, d(q, routing) - radius), pruned against the current j-th best.
std::vector<Neighbor> MTreeKnn(const MTree& tree, const PreparedQuery& query,
                               size_t j, Statistics* stats = nullptr);

}  // namespace topk

#endif  // TOPK_METRIC_KNN_H_
