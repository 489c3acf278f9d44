// ResilientReader: degraded-read serving over a failing storage tier.
//
// The preferred read path is the mmap'd snapshot tier (zero-copy
// compressed postings, storage/snapshot.h): cheap to open, larger than
// RAM, but backed by a device that can fail *after* open — a torn cable
// or a dying disk surfaces as SIGBUS/EIO on first touch of a cold page,
// long after OpenStoreSnapshot validated the metadata. ResilientReader
// is the serving-side answer: every range and k-NN query first probes the
// snapshot tier; a read fault there (modelled by the
// "serve.snapshot.query" failpoint — the hardware itself cannot be
// scripted in a test) trips a *sticky* degradation to the in-RAM store,
// the failing mapping is dropped, and serving continues without a
// user-visible error. Each degraded answer ticks kDegradedReads so an
// operator sees the fallback instead of discovering it from a latency
// regression, and RestoreSnapshotTier() re-arms the fast tier once the
// fault is cleared (it re-runs the SnapshotManager recovery scan, so a
// corrupted generation is quarantined rather than re-trusted).
//
// Exactness across tiers: both paths answer bit-identically for every
// theta. Below dmax the snapshot tier runs filter+validate over the
// compressed index with the paper's list dropping (kernel
// RangeCandidates): only the lists SelectLists keeps under
// DropMode::kPositionRefined are decoded — k - w of the query's k lists
// where Lemma 2's refinement is provably sound, k - w + 1 elsewhere. That
// is exact because every result within theta shares at least
// w = MinOverlap(k, theta) items with the query and so appears in one of
// the kept lists (DESIGN.md, "Drop refinement guard"). At or above dmax
// (where a posting union provably misses disjoint rankings) both tiers
// validate the full id domain. tests/serve_robustness_test.cc sweeps every
// theta in [0, dmax] against brute force to pin this.
//
// k-NN takes the same tier choice. The snapshot tier runs the kernel's
// list-at-a-time search (kernel/knn_search.h) over the decoded lists,
// shortest first, and stops once the heap bound b proves the answer: the
// heap is full, b < dmax, and SufficientLists(k, b) lists are read. When
// the index cannot prove it (fewer than j rows share an item with the
// query, or b = dmax) the tier scans every row, as the RAM tier always
// does.
//
// Thread safety: all methods serialize on an internal mutex (the
// kernel scratch and the tier state are shared); concurrent callers
// block rather than race. Deadlines/cancellation thread through
// QueryControl into the validate kernels at candidate granularity.

#ifndef TOPK_SERVE_RESILIENT_READER_H_
#define TOPK_SERVE_RESILIENT_READER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "core/types.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "kernel/knn_search.h"
#include "storage/snapshot_manager.h"

namespace topk {

struct ResilientReaderOptions {
  /// Directory holding gen-*.topksnp files (see SnapshotManager). Empty
  /// disables the snapshot tier entirely (RAM-only, never "degraded").
  std::string snapshot_dir;
  /// Forwarded to the SnapshotManager recovery scan.
  size_t keep_generations = 3;
};

class ResilientReader {
 public:
  /// `ram_store` must outlive the reader and hold the same logical
  /// contents as the snapshots in `snapshot_dir` (it is the fallback
  /// truth the degraded tier serves from). The snapshot tier starts
  /// closed; call OpenSnapshotTier().
  ResilientReader(const RankingStore* ram_store,
                  ResilientReaderOptions options);

  /// Opens the newest valid snapshot generation (quarantining corrupt
  /// ones — see SnapshotManager::OpenNewestValid) and makes it the
  /// preferred read tier. NotFound when no valid generation exists; the
  /// reader then keeps serving from RAM.
  Status OpenSnapshotTier(Statistics* stats = nullptr) TOPK_EXCLUDES(mutex_);

  /// Operator lever after a degradation: re-runs the recovery scan and,
  /// on success, promotes the snapshot tier back to preferred.
  Status RestoreSnapshotTier(Statistics* stats = nullptr)
      TOPK_EXCLUDES(mutex_);

  /// True once a snapshot-tier read fault tripped the fallback (sticky
  /// until RestoreSnapshotTier succeeds).
  bool degraded() const TOPK_EXCLUDES(mutex_);
  /// True while the snapshot tier is open and preferred.
  bool snapshot_open() const TOPK_EXCLUDES(mutex_);
  /// Generation of the open snapshot (0 when closed).
  uint64_t snapshot_generation() const TOPK_EXCLUDES(mutex_);

  /// Exact range query (ascending ids) from whichever tier is healthy.
  /// On a deadline/cancel stop `*out` is left empty and the status is
  /// DeadlineExceeded / Aborted; a snapshot-tier fault never surfaces
  /// here — it degrades and the RAM tier answers.
  Status RangeQuery(const PreparedQuery& query, RawDistance theta_raw,
                    QueryControl* control, std::vector<RankingId>* out,
                    Statistics* stats = nullptr) TOPK_EXCLUDES(mutex_);

  /// Convenience wrapper: no deadline, asserts OK.
  std::vector<RankingId> RangeQuery(const PreparedQuery& query,
                                    RawDistance theta_raw,
                                    Statistics* stats = nullptr)
      TOPK_EXCLUDES(mutex_);

  /// The j nearest rows, sorted by (distance, id), exactly min(j, n)
  /// entries — bit-identical to LinearScanKnn over the RAM store. The
  /// tier choice, the serve.snapshot.query fault and the sticky degrade
  /// are RangeQuery's; a stop leaves `*out` empty with the same statuses.
  Status KnnQuery(const PreparedQuery& query, size_t j, QueryControl* control,
                  std::vector<Neighbor>* out, Statistics* stats = nullptr)
      TOPK_EXCLUDES(mutex_);

  /// Convenience wrapper: no deadline, asserts OK.
  std::vector<Neighbor> KnnQuery(const PreparedQuery& query, size_t j,
                                 Statistics* stats = nullptr)
      TOPK_EXCLUDES(mutex_);

 private:
  /// Whether this query reads the snapshot tier. Probes the
  /// serve.snapshot.query fault first: a fault degrades stickily and
  /// drops the mapping. Ticks kDegradedReads when the answer comes from
  /// the RAM tier of a degraded reader.
  bool UseSnapshotTierLocked(Statistics* stats) TOPK_REQUIRES(mutex_);
  Status SnapshotRangeLocked(const PreparedQuery& query, RawDistance theta_raw,
                             QueryControl* control,
                             std::vector<RankingId>* out, Statistics* stats)
      TOPK_REQUIRES(mutex_);
  Status RamRangeLocked(const PreparedQuery& query, RawDistance theta_raw,
                        QueryControl* control, std::vector<RankingId>* out,
                        Statistics* stats) TOPK_REQUIRES(mutex_);
  /// Validates `candidates` of `store` through the shared kernel scratch.
  Status ValidateLocked(const RankingStore& store,
                        std::span<const RankingId> candidates,
                        const PreparedQuery& query, RawDistance theta_raw,
                        QueryControl* control, std::vector<RankingId>* out,
                        Statistics* stats) TOPK_REQUIRES(mutex_);

  const RankingStore* ram_store_;
  ResilientReaderOptions options_;
  storage::SnapshotManager manager_;

  mutable Mutex mutex_;
  std::optional<storage::OpenedSnapshot> snapshot_ TOPK_GUARDED_BY(mutex_);
  bool degraded_ TOPK_GUARDED_BY(mutex_) = false;
  FilterScratch filter_ TOPK_GUARDED_BY(mutex_);
  FootruleValidator validator_ TOPK_GUARDED_BY(mutex_);
};

}  // namespace topk

#endif  // TOPK_SERVE_RESILIENT_READER_H_
