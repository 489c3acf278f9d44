// Blocked inverted index (Section 6.3).
//
// Each posting list is sorted by rank (then id), so all entries where an
// item appears at rank j form a contiguous block B_item@j. A secondary
// directory of k+1 offsets per list addresses blocks directly. A query can
// then skip blocks whose partial distance |j - q(item)| already exceeds
// theta without scanning them.

#ifndef TOPK_INVIDX_BLOCKED_INVERTED_INDEX_H_
#define TOPK_INVIDX_BLOCKED_INVERTED_INDEX_H_

#include <span>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/augmented_inverted_index.h"
#include "invidx/drop_policy.h"
#include "kernel/footrule_batch.h"
#include "kernel/posting_arena.h"

namespace topk {

class BlockedInvertedIndex {
 public:
  /// Lists are rank-major, NOT id-sorted: FilterPhase must keep its
  /// general dedup loop over them.
  static constexpr bool kIdSortedLists = false;

  static BlockedInvertedIndex Build(const RankingStore& store);

  /// The (k+1)-cursor block directory of `item`'s list (block j spans
  /// list(item)[dir[j] .. dir[j+1])), or nullptr for items outside the
  /// directory. This is what BlockRangeSweep (kernel/block_sweep.h) walks.
  const uint32_t* block_offsets(ItemId item) const {
    if (item >= arena_.num_lists()) return nullptr;
    return &offsets_[static_cast<size_t>(item) * (k_ + 1)];
  }

  /// Entries of item's block at rank j (possibly empty).
  std::span<const AugmentedEntry> Block(ItemId item, Rank j) const {
    const uint32_t* off = block_offsets(item);
    if (off == nullptr) return {};
    return arena_.list(item).subspan(off[j], off[j + 1] - off[j]);
  }

  /// Entries of item with rank in [lo, hi] (contiguous by construction).
  std::span<const AugmentedEntry> BlockRange(ItemId item, Rank lo,
                                             Rank hi) const {
    const uint32_t* off = block_offsets(item);
    if (off == nullptr) return {};
    return arena_.list(item).subspan(off[lo], off[hi + 1] - off[lo]);
  }

  std::span<const AugmentedEntry> list(ItemId item) const {
    return arena_.list(item);
  }

  size_t list_length(ItemId item) const { return arena_.list_length(item); }
  uint32_t k() const { return k_; }
  size_t num_indexed() const { return num_indexed_; }
  size_t num_entries() const { return arena_.num_entries(); }
  /// Exact heap bytes: CSR arena + the per-item (k+1)-offset block
  /// directory.
  size_t MemoryUsage() const {
    return arena_.MemoryUsage() + offsets_.capacity() * sizeof(uint32_t);
  }

  const PostingArena<AugmentedEntry>& arena() const { return arena_; }

 private:
  uint32_t k_ = 0;
  size_t num_indexed_ = 0;
  PostingArena<AugmentedEntry> arena_;
  std::vector<uint32_t> offsets_;  // (#items) * (k+1) block directory
};

struct BlockedOptions {
  DropMode drop = DropMode::kNone;
  /// Process blocks in rounds of increasing partial distance delta and stop
  /// once even an unseen candidate's cheapest completion exceeds theta (the
  /// paper's "terminate further scheduling of blocks"). Automatically
  /// disabled under +Drop: dropped lists may hide common items from the
  /// termination argument (see DESIGN.md).
  bool scheduled = true;
};

/// Blocked+Prune / Blocked+Prune+Drop query processing. Surviving
/// candidates are validated exactly through the batched kernel validator:
/// partial sums over an index with skipped blocks cannot prove membership,
/// only rule it out.
///
/// Windowed mode walks each kept list's block directory through
/// BlockRangeSweep with a *discovery-tightened* window: a candidate first
/// reaching the scan at kept list t has already paid (k - t') for every
/// kept list t' processed before it (it appeared in none of them), so
/// only blocks with |j - t| <= theta - processed_absent can still
/// discover results — and once that budget goes negative the remaining
/// lists are skipped outright. Threshold-sound with or without +Drop; the
/// proof lives in DESIGN.md ("Block-skipping sweep").
class BlockedEngine {
 public:
  BlockedEngine(const RankingStore* store, const BlockedInvertedIndex* index,
                BlockedOptions options = {});

  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr);

 private:
  struct Accumulator {
    uint32_t epoch = 0;
    RawDistance seen_sum = 0;
    RawDistance seen_q_cost = 0;
    bool dead = false;
  };

  std::vector<RankingId> QueryWindowed(const PreparedQuery& query,
                                       RawDistance theta_raw,
                                       Statistics* stats);
  std::vector<RankingId> QueryScheduled(const PreparedQuery& query,
                                        RawDistance theta_raw,
                                        Statistics* stats);
  std::vector<RankingId> ValidateSurvivors(const PreparedQuery& query,
                                           RawDistance theta_raw,
                                           Statistics* stats);

  const RankingStore* store_;
  const BlockedInvertedIndex* index_;
  BlockedOptions options_;
  std::vector<Accumulator> accs_;
  std::vector<RankingId> touched_;
  std::vector<uint32_t> positions_;  // SelectLists output, per query
  std::vector<RankingId> survivors_;  // non-dead touched ids, per query
  FootruleValidator validator_;
  uint32_t epoch_ = 0;
};

}  // namespace topk

#endif  // TOPK_INVIDX_BLOCKED_INVERTED_INDEX_H_
