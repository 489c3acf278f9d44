#include "serve/resilient_reader.h"

#include <algorithm>
#include <utility>

#include "core/failpoint.h"

namespace topk {

namespace {

Status StopStatus(const QueryControl& control, Statistics* stats) {
  AddTicker(stats, Ticker::kDeadlineExceeded);
  if (control.cancelled()) return Status::Aborted("range query cancelled");
  return Status::DeadlineExceeded("range query deadline exceeded");
}

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

Status ResilientReader::RangeQuery(const PreparedQuery& query,
                                   RawDistance theta_raw,
                                   QueryControl* control,
                                   std::vector<RankingId>* out,
                                   Statistics* stats) {
  out->clear();
  MutexLock lock(&mutex_);
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, stats);
  }
  if (snapshot_.has_value() && !degraded_) {
    // The failpoint stands in for the unscriptable hardware fault: a
    // cold mmap page whose backing device died surfaces here, on first
    // touch, not at open time. Degradation is sticky — one fault means
    // the mapping cannot be trusted for any later page either.
    if (TOPK_FAILPOINT("serve.snapshot.query")) {
      degraded_ = true;
      snapshot_.reset();  // drop the failing mapping
    } else {
      return SnapshotRangeLocked(query, theta_raw, control, out, stats);
    }
  }
  if (degraded_) AddTicker(stats, Ticker::kDegradedReads);
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
    return StopStatus(*control, stats);
  }
  AddTicker(stats, Ticker::kResults, out->size());
  return Status::OK();
}

}  // namespace topk
