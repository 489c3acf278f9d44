// Exact k-NN over an inverted index: list-at-a-time search under the
// bound of one shared neighbour heap.
//
// Every k-NN searcher in the library keeps its j best (distance, id)
// pairs in a NeighborHeap. Its bound, the worst admitted distance, is the
// radius a range query would need to reproduce the current answer, and
// KnnSearchSegment runs k-NN as that range query with a shrinking radius
// over one indexed segment (the exact-kNN strategy Chen et al. survey in
// "Indexing Metric Spaces for Exact Similarity Search"):
//
//  * the query's k posting lists are read shortest first, ties by query
//    position, so the cheapest lists tighten the bound first;
//  * each row is deduplicated through FilterScratch::visited, and a row
//    the caller masks out (a tombstone) costs no distance call;
//  * once the heap is full, FootruleValidator::WithinThreshold rejects a
//    row against the bound, usually after a few of its items;
//  * the segment stops once the heap is full, its bound b is below dmax,
//    and SufficientLists(k, b) = k - MinOverlap(k, b) + 1 lists are read:
//    by pigeonhole every row within b lies in any that many lists, so it
//    has been offered, and the bound only shrinks.
//
// Segments may share one heap. Only rows disjoint from the query, at
// exactly dmax, can escape a segment that read all its lists, so the
// heap's answer is final when KnnIndexProvesAnswer holds: full, with a
// bound below dmax. Otherwise the caller resets the heap and reruns the
// exhaustive KnnScanSegment over every segment, the safe fallback of
// pisa's safe/unsafe wrapper. DESIGN.md, "k-NN stop rule", gives the
// argument. Like FilterPhase, the search is generic over the index: it
// needs list_length(item) plus list(item) or, for the storage tier's
// decoded lists, DecodeList(item, landing).

#ifndef TOPK_KERNEL_KNN_SEARCH_H_
#define TOPK_KERNEL_KNN_SEARCH_H_

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/bounds.h"
#include "core/deadline.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"

namespace topk {

struct Neighbor {
  RankingId id;
  RawDistance distance;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// The k-NN answer order: (distance, id) ascending. Ids are unique, so
/// this is a strict total order and every answer is unique.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

/// Bounded best-j set over (distance, id) pairs: a max-heap whose top is
/// the current worst admitted neighbour. Capacity 0 admits nothing.
class NeighborHeap {
 public:
  explicit NeighborHeap(size_t capacity = 0) : capacity_(capacity) {}

  /// Empties the heap for `capacity` neighbours, keeping its buffer.
  void Reset(size_t capacity) {
    capacity_ = capacity;
    heap_.clear();
  }

  size_t capacity() const { return capacity_; }
  bool full() const { return heap_.size() == capacity_; }

  /// Worst admitted distance; infinite while not full.
  RawDistance Bound() const {
    return full() && capacity_ > 0 ? heap_.front().distance
                                   : std::numeric_limits<RawDistance>::max();
  }

  void Offer(RankingId id, RawDistance distance) {
    if (capacity_ == 0) return;
    const Neighbor candidate{id, distance};
    if (!full()) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
      return;
    }
    if (NeighborLess(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), NeighborLess);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
    }
  }

  /// The admitted neighbours in (distance, id) order.
  std::vector<Neighbor> Finish() && {
    std::sort(heap_.begin(), heap_.end(), NeighborLess);
    return std::move(heap_);
  }

 private:
  size_t capacity_;
  std::vector<Neighbor> heap_;  // max-heap under NeighborLess
};

/// Whether the heap filled by KnnSearchSegment over every segment holds
/// the exact answer: full with a bound below dmax, so no row missed by
/// the posting lists (disjoint from the query, at dmax) can enter.
inline bool KnnIndexProvesAnswer(const NeighborHeap& heap, uint32_t k) {
  return heap.capacity() == 0 ||
         (heap.full() && heap.Bound() < MaxDistance(k));
}

/// List-at-a-time k-NN over one indexed segment of `store` (see the
/// header comment). `global_of(local)` maps a row to the id offered to
/// the heap, or to kInvalidRankingId for a row that must be skipped.
/// The heap orders rows by (distance, global id), so segments sharing it
/// may be searched in any order. Ticks kPostingEntriesScanned per entry
/// read, kDistanceCalls per row validated and kListsDropped per list the
/// stop rule left unread. `control` is polled per posting entry; on a
/// stop the heap holds a partial answer the caller must discard.
template <typename Index, typename GlobalOf>
void KnnSearchSegment(const Index& index, const RankingStore& store,
                      RankingView query, const GlobalOf& global_of,
                      FootruleValidator* validator, FilterScratch* scratch,
                      NeighborHeap* heap, Statistics* stats = nullptr,
                      QueryControl* control = nullptr) {
  if (store.empty() || heap->capacity() == 0) return;
  const uint32_t k = query.k();
  const RawDistance dmax = MaxDistance(k);
  validator->BindQuery(query, static_cast<size_t>(store.max_item()) + 1);
  scratch->visited.EnsureCapacity(store.size());
  scratch->visited.NextEpoch();

  // Shortest lists first; (length asc, position asc) is a strict order.
  std::vector<uint32_t>& order = scratch->positions;
  order.resize(k);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const size_t la = index.list_length(query[a]);
    const size_t lb = index.list_length(query[b]);
    return la != lb ? la < lb : a < b;
  });

  auto* landing = DecodeLandingA<Index>(scratch);
  uint32_t lists_read = 0;
  for (const uint32_t position : order) {
    if (heap->full()) {
      const RawDistance bound = heap->Bound();
      if (bound < dmax && lists_read >= SufficientLists(k, bound)) break;
    }
    const auto list = [&] {
      if constexpr (IndexHasDecodedLists<Index>()) {
        return index.DecodeList(query[position], landing);
      } else {
        (void)landing;
        return index.list(query[position]);
      }
    }();
    ++lists_read;
    AddTicker(stats, Ticker::kPostingEntriesScanned, list.size());
    for (const auto& entry : list) {
      if (control != nullptr && control->ShouldStop()) return;
      const RankingId local = PostingEntryId(entry);
      if (scratch->visited.TestAndSet(local)) continue;
      const RankingId global = global_of(local);
      if (global == kInvalidRankingId) continue;
      const RankingView row = store.view(local);
      AddTicker(stats, Ticker::kDistanceCalls);
      if (heap->full() && !validator->WithinThreshold(row, heap->Bound())) {
        continue;
      }
      heap->Offer(global, validator->Distance(row));
    }
  }
  AddTicker(stats, Ticker::kListsDropped, k - lists_read);
}

/// The exhaustive fallback: offers every unmasked row of `store` (same
/// `global_of` contract as KnnSearchSegment), rows disjoint from the
/// query included. The heap must hold no row of `store` yet: callers
/// Reset it before the rerun. `control` is polled per row.
template <typename GlobalOf>
void KnnScanSegment(const RankingStore& store, RankingView query,
                    const GlobalOf& global_of, FootruleValidator* validator,
                    NeighborHeap* heap, Statistics* stats = nullptr,
                    QueryControl* control = nullptr) {
  if (store.empty() || heap->capacity() == 0) return;
  validator->BindQuery(query, static_cast<size_t>(store.max_item()) + 1);
  const auto n = static_cast<RankingId>(store.size());
  for (RankingId local = 0; local < n; ++local) {
    if (control != nullptr && control->ShouldStop()) return;
    const RankingId global = global_of(local);
    if (global == kInvalidRankingId) continue;
    const RankingView row = store.view(local);
    AddTicker(stats, Ticker::kDistanceCalls);
    if (heap->full() && !validator->WithinThreshold(row, heap->Bound())) {
      continue;
    }
    heap->Offer(global, validator->Distance(row));
  }
}

}  // namespace topk

#endif  // TOPK_KERNEL_KNN_SEARCH_H_
