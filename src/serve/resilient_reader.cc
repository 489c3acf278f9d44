#include "serve/resilient_reader.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/failpoint.h"

namespace topk {

namespace {

/// The snapshot and RAM tiers hold no tombstones: a row's id is global.
struct IdentityId {
  RankingId operator()(RankingId local) const { return local; }
};

}  // namespace

ResilientReader::ResilientReader(const RankingStore* ram_store,
                                 ResilientReaderOptions options)
    : ram_store_(ram_store),
      options_(std::move(options)),
      manager_(options_.snapshot_dir,
               storage::SnapshotManagerOptions{options_.keep_generations}) {}

Status ResilientReader::OpenSnapshotTier(Statistics* stats) {
  if (options_.snapshot_dir.empty()) {
    return Status::InvalidArgument("no snapshot_dir configured");
  }
  // The whole scan runs under the reader mutex: SnapshotManager is
  // externally synchronized, and this also keeps a concurrent query
  // from observing a half-swapped tier.
  MutexLock lock(&mutex_);
  Result<storage::OpenedSnapshot> opened = manager_.OpenNewestValid(stats);
  if (!opened.ok()) return opened.status();
  snapshot_ = std::move(opened).ValueOrDie();
  degraded_ = false;
  return Status::OK();
}

Status ResilientReader::RestoreSnapshotTier(Statistics* stats) {
  return OpenSnapshotTier(stats);
}

bool ResilientReader::degraded() const {
  MutexLock lock(&mutex_);
  return degraded_;
}

bool ResilientReader::snapshot_open() const {
  MutexLock lock(&mutex_);
  return snapshot_.has_value();
}

uint64_t ResilientReader::snapshot_generation() const {
  MutexLock lock(&mutex_);
  return snapshot_.has_value() ? snapshot_->generation : 0;
}

bool ResilientReader::UseSnapshotTierLocked(Statistics* stats) {
  if (snapshot_.has_value() && !degraded_) {
    // The failpoint stands in for the unscriptable hardware fault: a
    // cold mmap page whose backing device died surfaces here, on first
    // touch, not at open time. Degradation is sticky — one fault means
    // the mapping cannot be trusted for any later page either.
    if (!TOPK_FAILPOINT("serve.snapshot.query")) return true;
    degraded_ = true;
    snapshot_.reset();  // drop the failing mapping
  }
  if (degraded_) AddTicker(stats, Ticker::kDegradedReads);
  return false;
}

Status ResilientReader::RangeQuery(const PreparedQuery& query,
                                   RawDistance theta_raw,
                                   QueryControl* control,
                                   std::vector<RankingId>* out,
                                   Statistics* stats) {
  out->clear();
  MutexLock lock(&mutex_);
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, "range query", stats);
  }
  if (UseSnapshotTierLocked(stats)) {
    return SnapshotRangeLocked(query, theta_raw, control, out, stats);
  }
  return RamRangeLocked(query, theta_raw, control, out, stats);
}

std::vector<RankingId> ResilientReader::RangeQuery(const PreparedQuery& query,
                                                   RawDistance theta_raw,
                                                   Statistics* stats) {
  std::vector<RankingId> out;
  const Status status = RangeQuery(query, theta_raw, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // no deadline, no fault surfaces as a status
  return out;
}

Status ResilientReader::SnapshotRangeLocked(const PreparedQuery& query,
                                            RawDistance theta_raw,
                                            QueryControl* control,
                                            std::vector<RankingId>* out,
                                            Statistics* stats) {
  const RankingStore& store = snapshot_->snapshot.store();
  const std::span<const RankingId> candidates =
      RangeCandidates(snapshot_->snapshot.index(), query.view(), theta_raw,
                      store.size(), &filter_, stats);
  Status status = ValidateLocked(store, candidates, query, theta_raw, control,
                                 out, stats);
  if (status.ok()) std::sort(out->begin(), out->end());
  return status;
}

Status ResilientReader::RamRangeLocked(const PreparedQuery& query,
                                       RawDistance theta_raw,
                                       QueryControl* control,
                                       std::vector<RankingId>* out,
                                       Statistics* stats) {
  // No index survives on this tier (the compressed postings lived in the
  // dropped mapping), so the fallback is a straight validate-everything
  // scan: slower, never wrong, and alive — which is the whole point.
  return ValidateLocked(*ram_store_, AllIds(ram_store_->size(), &filter_),
                        query, theta_raw, control, out, stats);
}

Status ResilientReader::ValidateLocked(const RankingStore& store,
                                       std::span<const RankingId> candidates,
                                       const PreparedQuery& query,
                                       RawDistance theta_raw,
                                       QueryControl* control,
                                       std::vector<RankingId>* out,
                                       Statistics* stats) {
  AddTicker(stats, Ticker::kCandidates, candidates.size());
  validator_.BindQuery(query.view(),
                       static_cast<size_t>(store.max_item()) + 1);
  validator_.ValidateSpan(store, candidates, theta_raw, out, stats, control);
  if (control != nullptr && control->ShouldStop()) {
    out->clear();
    return StopStatus(*control, "range query", stats);
  }
  AddTicker(stats, Ticker::kResults, out->size());
  return Status::OK();
}

Status ResilientReader::KnnQuery(const PreparedQuery& query, size_t j,
                                 QueryControl* control,
                                 std::vector<Neighbor>* out,
                                 Statistics* stats) {
  out->clear();
  MutexLock lock(&mutex_);
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, "knn query", stats);
  }
  const RankingView q = query.view();
  NeighborHeap heap(j);
  const RankingStore* scan_store = ram_store_;
  if (UseSnapshotTierLocked(stats)) {
    // The same list-at-a-time search MutableStore runs per segment, over
    // the decoded lists of the mmap tier; the exhaustive scan below only
    // runs when the index cannot prove the answer.
    scan_store = &snapshot_->snapshot.store();
    KnnSearchSegment(snapshot_->snapshot.index(), *scan_store, q,
                     IdentityId{}, &validator_, &filter_, &heap, stats,
                     control);
    if (KnnIndexProvesAnswer(heap, q.k())) scan_store = nullptr;
  }
  if (scan_store != nullptr && !(control != nullptr && control->stopped())) {
    // The RAM tier has no index (the compressed postings lived in the
    // dropped mapping), and on the snapshot tier the index could not
    // prove the answer: either way every row of the tier is offered.
    heap.Reset(j);
    KnnScanSegment(*scan_store, q, IdentityId{},  // knn-scan-ok: no index
                   &validator_, &heap, stats, control);
  }
  if (control != nullptr && control->stopped()) {
    return StopStatus(*control, "knn query", stats);
  }
  *out = std::move(heap).Finish();
  return Status::OK();
}

std::vector<Neighbor> ResilientReader::KnnQuery(const PreparedQuery& query,
                                                size_t j, Statistics* stats) {
  std::vector<Neighbor> out;
  const Status status = KnnQuery(query, j, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // no deadline, no fault surfaces as a status
  return out;
}

}  // namespace topk
