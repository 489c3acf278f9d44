// Compressed rank-augmented serving: the storage-tier counterpart of the
// augmented / blocked indexes (Sections 6.2-6.3), querying straight off
// the block-compressed rank-interleaved codec.
//
// CompressedAugmentedIndex compresses the id-sorted augmented arena
// (BuildAugmentedArena); each posting entry carries the rank at which the
// item appears, so validation consumes ranks straight from the decode
// buffer instead of probing stored rankings. On top of the id-range
// partial decode shared with the plain compressed index, the arena's
// per-block BlockRankRange metadata enables a *rank-windowed* partial
// decode: the discovery-tightened window of the blocked engine
// (|rank - t| <= theta - processed_absent, DESIGN.md "Block-skipping
// sweep") discards whole 128-entry blocks on metadata alone — their
// payload bytes are never touched.
//
// CompressedAugmentedEngine sweeps the kept lists with that window,
// accumulating per-candidate {seen_sum, seen_q_cost, seen_c_cost} under
// the blocked engine's threshold-sound lower bound. When the sweep is
// *complete* (no drop, no block skipped, no early stop) the accumulator
// determines the exact distance in stream:
//
//   F = seen_sum + MaxDistance(k) - seen_q_cost - seen_c_cost
//
// (each side's absence cost is half MaxDistance minus the presence cost
// already credited), so results finalize with zero store probes and zero
// distance calls. Any skipping falls back to the batched exact validator
// over the surviving candidates — partial sums over skipped blocks can
// rule candidates out, never prove them in. Either way the results are
// bit-identical to the uncompressed engines (tests/storage_augmented_test
// pins every drop mode against FilterValidateEngine and brute force).

#ifndef TOPK_STORAGE_COMPRESSED_AUGMENTED_H_
#define TOPK_STORAGE_COMPRESSED_AUGMENTED_H_

#include <span>
#include <vector>

#include "core/posting_entry.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/augmented_inverted_index.h"
#include "invidx/drop_policy.h"
#include "kernel/footrule_batch.h"
#include "storage/compressed_arena.h"

namespace topk {
namespace storage {

class CompressedAugmentedIndex {
 public:
  /// Lists decode to exactly AugmentedInvertedIndex's id-sorted lists.
  static constexpr bool kIdSortedLists = true;
  /// Lists are served through DecodeList(item, scratch), not list(item).
  static constexpr bool kDecodedLists = true;
  /// Decoded entry type (selects the FilterScratch landing buffers).
  using PostingEntry = AugmentedEntry;

  CompressedAugmentedIndex() = default;

  /// Compresses an already-built augmented index's arena (rank ranges are
  /// computed per block during compression).
  static CompressedAugmentedIndex FromAugmented(
      const AugmentedInvertedIndex& augmented) {
    CompressedAugmentedIndex index;
    index.arena_ =
        CompressedPostingArena<AugmentedEntry>::FromArena(augmented.arena());
    index.num_indexed_ = augmented.num_indexed();
    return index;
  }

  /// Indexes every ranking in `store` (the intermediate CSR is dropped).
  static CompressedAugmentedIndex Build(const RankingStore& store) {
    return FromAugmented(AugmentedInvertedIndex::Build(store));
  }

  /// Posting list for `item`, decoded into `scratch` when compressed,
  /// served directly from the inline tier otherwise.
  std::span<const AugmentedEntry> DecodeList(
      ItemId item, std::vector<AugmentedEntry>* scratch) const {
    return arena_.DecodeList(item, scratch);
  }

  /// Partial decode for an id-range sweep (superset semantics; see
  /// CompressedPostingArena::DecodeBlocksInRange).
  std::span<const AugmentedEntry> DecodeListInRange(
      ItemId item, RankingId id_lo, RankingId id_hi,
      std::vector<AugmentedEntry>* scratch, BlockSkipStats* skip) const {
    return arena_.DecodeBlocksInRange(item, id_lo, id_hi, scratch, skip);
  }

  /// Partial decode for a rank-windowed sweep: blocks whose rank range
  /// misses [rank_lo, rank_hi] are skipped on metadata alone (superset
  /// semantics; see CompressedPostingArena::DecodeBlocksInRankWindow).
  std::span<const AugmentedEntry> DecodeListInRankWindow(
      ItemId item, uint32_t rank_lo, uint32_t rank_hi,
      std::vector<AugmentedEntry>* scratch, BlockSkipStats* skip) const {
    return arena_.DecodeBlocksInRankWindow(item, rank_lo, rank_hi, scratch,
                                           skip);
  }

  size_t list_length(ItemId item) const { return arena_.list_length(item); }
  size_t num_indexed() const { return num_indexed_; }
  size_t num_entries() const { return arena_.num_entries(); }
  size_t MemoryUsage() const { return arena_.MemoryUsage(); }

  const CompressedPostingArena<AugmentedEntry>& arena() const {
    return arena_;
  }

 private:
  CompressedPostingArena<AugmentedEntry> arena_;
  size_t num_indexed_ = 0;
};

struct CompressedAugmentedOptions {
  DropMode drop = DropMode::kNone;
  /// Rank-windowed partial decode (block skip on BlockRankRange metadata).
  /// Off = every kept list decodes fully; results are identical either
  /// way, only the decode work and the skip tickers differ.
  bool block_skip = true;
};

/// Augmented F&V over the compressed index with discovery-tightened
/// rank-window block skipping and streaming exact finalization on
/// complete sweeps (see file comment).
class CompressedAugmentedEngine {
 public:
  /// `store` and `index` must outlive the engine. The store backs the
  /// exact validator on incomplete sweeps; complete sweeps never touch it.
  CompressedAugmentedEngine(const RankingStore* store,
                            const CompressedAugmentedIndex* index,
                            CompressedAugmentedOptions options = {});

  /// All rankings within raw distance `theta_raw` of the query, in
  /// ascending id order.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr);

 private:
  struct Accumulator {
    uint32_t epoch = 0;
    bool dead = false;
    RawDistance seen_sum = 0;     // sum of |rank - t| over seen entries
    RawDistance seen_q_cost = 0;  // sum of (k - t) over lists seen in
    RawDistance seen_c_cost = 0;  // sum of (k - rank) over seen entries
  };

  const RankingStore* store_;
  const CompressedAugmentedIndex* index_;
  CompressedAugmentedOptions options_;
  std::vector<Accumulator> accs_;
  std::vector<RankingId> touched_;
  std::vector<uint32_t> positions_;  // SelectLists output, per query
  std::vector<RankingId> survivors_;  // non-dead touched ids, per query
  std::vector<AugmentedEntry> decode_;
  FootruleValidator validator_;
  uint32_t epoch_ = 0;
};

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_COMPRESSED_AUGMENTED_H_
