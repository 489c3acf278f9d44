// Posting-list dropping driven by the minimum-overlap bound (Section 6.1).
//
// A result within raw distance theta of the query must share at least
// w = MinOverlap(k, theta) items with it, so by pigeonhole it is guaranteed
// to appear in any k - w + 1 of the query's k posting lists (conservative
// policy). The paper's Lemma 2 refines this to k - w lists when at least
// one accessed list belongs to an item in the query's top-w positions.
//
// Correctness correction (documented in DESIGN.md and verified by
// exhaustive tests): the k - w refinement is only sound while
// theta <= L(k, w) + 1. Overlap-w results are forced into the "all common
// items in the top-w positions of both rankings" configuration only up to
// that threshold; the cheapest non-top configuration costs exactly
// L(k, w) + 2, so for larger theta within the same w-bracket a result can
// evade every accessed list. SelectLists therefore applies the refinement
// only when it is provably safe and otherwise falls back to the
// conservative policy.

#ifndef TOPK_INVIDX_DROP_POLICY_H_
#define TOPK_INVIDX_DROP_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/bounds.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"

namespace topk {

enum class DropMode {
  /// Access all k lists.
  kNone,
  /// Access k - w + 1 lists (always sound).
  kConservative,
  /// Access k - w lists with the top-w guarantee where sound; conservative
  /// elsewhere (Lemma 2 with the correctness guard).
  kPositionRefined,
};

const char* DropModeName(DropMode mode);

/// Writes the query positions (ranks) whose posting lists must be
/// accessed into `*positions`, in ascending position order.
/// `list_length(item)` supplies the posting-list length so the longest
/// lists are dropped first — the paper's recommendation, since dropping
/// long lists saves the most scanning; ties keep the lower position.
/// Runs once per query (and per segment on the live store), so it works
/// in the caller's grow-only buffer and never allocates once that buffer
/// holds k entries.
template <typename ListLength>
void SelectLists(RankingView query, RawDistance theta_raw, DropMode mode,
                 const ListLength& list_length,
                 std::vector<uint32_t>* positions,
                 Statistics* stats = nullptr) {
  const uint32_t k = query.k();
  positions->resize(k);
  for (uint32_t pos = 0; pos < k; ++pos) (*positions)[pos] = pos;

  const uint32_t w = MinOverlap(k, theta_raw);
  if (mode == DropMode::kNone || w <= 1) {
    // w == 0 would mean even disjoint rankings qualify (theta >= dmax) and
    // an inverted index cannot find those at all; w == 1 permits no drops.
    return;
  }

  // Positions ordered by posting-list length, longest first: those are the
  // most profitable to drop. (length desc, position asc) is a strict total
  // order, so the in-place sort equals a stable sort by length.
  std::sort(positions->begin(), positions->end(),
            [&](uint32_t a, uint32_t b) {
              const size_t la = list_length(query[a]);
              const size_t lb = list_length(query[b]);
              return la != lb ? la > lb : a < b;
            });

  // The refinement may drop one more list than the conservative policy but
  // is only sound below the configuration-forcing threshold (see header).
  const bool refinement_sound =
      mode == DropMode::kPositionRefined &&
      theta_raw <= MinDistanceForOverlap(k, w) + 1;
  const uint32_t keep =
      refinement_sound ? std::max<uint32_t>(1, k - w) : (k - w + 1);

  // Greedily drop the longest lists. Under the refined policy at least one
  // kept list must come from the query's top-w positions; skip a drop that
  // would eliminate the last such position. Dropped slots are overwritten
  // with a sentinel and compacted away below.
  constexpr uint32_t kDropped = std::numeric_limits<uint32_t>::max();
  uint32_t top_w_kept = std::min(w, k);  // positions 0..w-1 still kept
  uint32_t num_dropped = 0;
  const uint32_t want_dropped = k - keep;
  for (uint32_t& pos : *positions) {
    if (num_dropped == want_dropped) break;
    if (refinement_sound && pos < w && top_w_kept == 1) continue;
    if (pos < w) --top_w_kept;
    pos = kDropped;
    ++num_dropped;
  }
  std::erase(*positions, kDropped);
  std::sort(positions->begin(), positions->end());
  AddTicker(stats, Ticker::kListsDropped, num_dropped);
}

}  // namespace topk

#endif  // TOPK_INVIDX_DROP_POLICY_H_
