#include "invidx/blocked_inverted_index.h"

#include <algorithm>

#include "core/bounds.h"
#include "kernel/block_sweep.h"

namespace topk {

BlockedInvertedIndex BlockedInvertedIndex::Build(const RankingStore& store) {
  BlockedInvertedIndex index;
  index.k_ = store.k();
  index.num_indexed_ = store.size();
  const size_t num_items = static_cast<size_t>(store.max_item()) + 1;
  index.arena_ = BuildAugmentedArena(store);
  // Rank-major (then id) order per list; scanning rankings in id order
  // already yields ids ascending within each rank, so a stable sort by rank
  // suffices. Sorting happens in place inside the arena.
  index.offsets_.reserve(num_items * (index.k_ + 1));
  index.offsets_.assign(num_items * (index.k_ + 1), 0);
  for (size_t item = 0; item < num_items; ++item) {
    const std::span<AugmentedEntry> list = index.arena_.mutable_list(item);
    std::stable_sort(
        list.begin(), list.end(),
        [](const AugmentedEntry& a, const AugmentedEntry& b) {
          return a.rank < b.rank;
        });
    uint32_t* off = &index.offsets_[item * (index.k_ + 1)];
    size_t pos = 0;
    for (Rank j = 0; j < index.k_; ++j) {
      off[j] = static_cast<uint32_t>(pos);
      while (pos < list.size() && list[pos].rank == j) ++pos;
    }
    off[index.k_] = static_cast<uint32_t>(list.size());
  }
  return index;
}

BlockedEngine::BlockedEngine(const RankingStore* store,
                             const BlockedInvertedIndex* index,
                             BlockedOptions options)
    : store_(store), index_(index), options_(options) {
  accs_.resize(index_->num_indexed());
  validator_.EnsureItemCapacity(
      store->empty() ? 0 : static_cast<size_t>(store->max_item()) + 1);
}

std::vector<RankingId> BlockedEngine::Query(const PreparedQuery& query,
                                            RawDistance theta_raw,
                                            Statistics* stats) {
  ++epoch_;
  if (epoch_ == 0) {
    for (auto& acc : accs_) acc.epoch = 0;
    epoch_ = 1;
  }
  touched_.clear();
  const bool use_scheduling =
      options_.scheduled && options_.drop == DropMode::kNone;
  return use_scheduling ? QueryScheduled(query, theta_raw, stats)
                        : QueryWindowed(query, theta_raw, stats);
}

std::vector<RankingId> BlockedEngine::QueryWindowed(
    const PreparedQuery& query, RawDistance theta_raw, Statistics* stats) {
  const uint32_t k = query.k();
  const RankingView q = query.view();
  SelectLists(q, theta_raw, options_.drop,
              [this](ItemId item) { return index_->list_length(item); },
              &positions_, stats);
  const std::vector<uint32_t>& positions = positions_;

  RawDistance processed_absent = 0;  // over processed (kept) lists
  for (size_t pi = 0; pi < positions.size(); ++pi) {
    const uint32_t t = positions[pi];
    if (processed_absent > theta_raw) {
      // Discovery is impossible from here on: a candidate first appearing
      // at this or any later kept list has already paid more than theta
      // in query-side absences. Account the remaining lists as skipped
      // and stop sweeping; survivors are validated exactly regardless.
      for (size_t rest = pi; rest < positions.size(); ++rest) {
        AddTicker(stats, Ticker::kPostingEntriesSkipped,
                  index_->list_length(q[positions[rest]]));
        AddTicker(stats, Ticker::kBlocksSkipped, k);
      }
      break;
    }
    // Accessible window under the remaining discovery budget: blocks with
    // |j - t| <= theta - processed_absent (DESIGN.md, "Block-skipping
    // sweep", proves this tighter-than-theta window misses no result).
    const RawDistance budget = theta_raw - processed_absent;
    const BlockWindow window = AccessibleBlockWindow(t, k, budget);
    const size_t scanned = BlockRangeSweep(
        index_->list(q[t]), index_->block_offsets(q[t]), window,
        [&](Rank j, std::span<const AugmentedEntry> block) {
          const Rank delta = j > t ? j - t : t - j;  // hoisted per block
          for (const AugmentedEntry& entry : block) {
            Accumulator& acc = accs_[entry.id];
            if (acc.epoch != epoch_) {
              acc = Accumulator{};
              acc.epoch = epoch_;
              touched_.push_back(entry.id);
            } else if (acc.dead) {
              continue;
            }
            acc.seen_sum += delta;
            acc.seen_q_cost += k - t;
            // Threshold-sound lower bound: a kept processed list the
            // candidate missed either proves absence (cost k - t') or
            // hides the candidate in a skipped block — and any block
            // skipped before a later list is scanned lies at
            // |j' - t'| >= k - t', so the absence cost still lower-bounds
            // the true contribution (DESIGN.md).
            const RawDistance lower =
                acc.seen_sum + processed_absent + (k - t) - acc.seen_q_cost;
            if (lower > theta_raw) {
              acc.dead = true;
              AddTicker(stats, Ticker::kPrunedByLowerBound);
            }
          }
        });
    AddTicker(stats, Ticker::kPostingEntriesScanned, scanned);
    AddTicker(stats, Ticker::kPostingEntriesSkipped,
              index_->list_length(q[t]) - scanned);
    AddTicker(stats, Ticker::kBlocksSkipped,
              window.lo + (k - 1 - window.hi));
    processed_absent += k - t;
  }
  return ValidateSurvivors(query, theta_raw, stats);
}

std::vector<RankingId> BlockedEngine::QueryScheduled(
    const PreparedQuery& query, RawDistance theta_raw, Statistics* stats) {
  const uint32_t k = query.k();
  const RankingView q = query.view();
  // Cheapest possible distance of a candidate first discovered in round
  // delta: every common item pays at least delta, and with overlap o the
  // absence structure pays at least L(k, o).
  auto min_unseen = [k](RawDistance delta) {
    RawDistance best = MaxDistance(k);
    for (uint32_t o = 1; o <= k; ++o) {
      best = std::min(best, o * delta + MinDistanceForOverlap(k, o));
    }
    return best;
  };

  const RawDistance delta_max =
      std::min<RawDistance>(theta_raw, k > 0 ? k - 1 : 0);
  for (RawDistance delta = 0; delta <= delta_max; ++delta) {
    if (min_unseen(delta) > theta_raw && delta > 0) {
      // New discoveries are impossible and survivors are validated exactly
      // anyway: stop scheduling blocks (the paper's early termination).
      break;
    }
    for (Rank t = 0; t < k; ++t) {
      for (int side = 0; side < 2; ++side) {
        // Blocks at rank t - delta and t + delta (deduplicated at delta 0).
        if (delta == 0 && side == 1) continue;
        const int64_t j64 = side == 0 ? static_cast<int64_t>(t) - delta
                                      : static_cast<int64_t>(t) + delta;
        if (j64 < 0 || j64 >= static_cast<int64_t>(k)) continue;
        const Rank j = static_cast<Rank>(j64);
        const size_t scanned = BlockRangeSweep(
            index_->list(q[t]), index_->block_offsets(q[t]),
            BlockWindow{j, j},
            [&](Rank, std::span<const AugmentedEntry> block) {
              for (const AugmentedEntry& entry : block) {
                Accumulator& acc = accs_[entry.id];
                if (acc.epoch != epoch_) {
                  acc = Accumulator{};
                  acc.epoch = epoch_;
                  touched_.push_back(entry.id);
                } else if (acc.dead) {
                  continue;
                }
                acc.seen_sum += delta;
                if (acc.seen_sum > theta_raw) {
                  acc.dead = true;
                  AddTicker(stats, Ticker::kPrunedByLowerBound);
                }
              }
            });
        AddTicker(stats, Ticker::kPostingEntriesScanned, scanned);
      }
    }
  }
  return ValidateSurvivors(query, theta_raw, stats);
}

std::vector<RankingId> BlockedEngine::ValidateSurvivors(
    const PreparedQuery& query, RawDistance theta_raw, Statistics* stats) {
  AddTicker(stats, Ticker::kCandidates, touched_.size());
  survivors_.clear();
  for (RankingId id : touched_) {
    if (!accs_[id].dead) survivors_.push_back(id);
  }
  // Exact distances through the batched (vector-capable) kernel; ticks
  // kDistanceCalls once per survivor, exactly like the scalar loop this
  // replaced.
  std::vector<RankingId> results;
  validator_.BindQuery(query.view(),
                       static_cast<size_t>(store_->max_item()) + 1);
  validator_.ValidateSpan(*store_, survivors_, theta_raw, &results, stats);
  std::sort(results.begin(), results.end());
  AddTicker(stats, Ticker::kResults, results.size());
  return results;
}

}  // namespace topk
