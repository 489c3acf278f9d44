#include "mutate/mutable_store.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <new>
#include <numeric>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "core/failpoint.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot_manager.h"

namespace topk {

namespace {

// splitmix64 drives the deterministic backoff jitter (same mixer the
// failpoint registry uses for probability thinning).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

MutableStore::MutableStore(uint32_t k, MutableStoreOptions options)
    : k_(k), options_(options), delta_(k) {
  TOPK_DCHECK(k > 0);
  main_ = std::make_shared<MainSegment>(k_);
  if (!options_.snapshot_dir.empty()) {
    snapshot_manager_ = std::make_unique<storage::SnapshotManager>(
        options_.snapshot_dir,
        storage::SnapshotManagerOptions{options_.snapshot_keep_generations});
  }
  if (options_.merge_threshold > 0) {
    merge_worker_ = std::thread([this] { MergeWorkerLoop(); });
  }
}

MutableStore::MutableStore(const RankingStore& initial,
                           MutableStoreOptions options)
    : k_(initial.k()), options_(options), delta_(initial.k()) {
  auto main = std::make_shared<MainSegment>(k_);
  main->store = initial;
  main->index = PlainInvertedIndex::Build(main->store);
  main->global_ids.resize(initial.size());
  std::iota(main->global_ids.begin(), main->global_ids.end(), RankingId{0});
  main_ = std::move(main);
  next_global_id_ = static_cast<RankingId>(initial.size());
  deleted_.assign(initial.size(), false);
  if (!options_.snapshot_dir.empty()) {
    snapshot_manager_ = std::make_unique<storage::SnapshotManager>(
        options_.snapshot_dir,
        storage::SnapshotManagerOptions{options_.snapshot_keep_generations});
  }
  if (options_.merge_threshold > 0) {
    merge_worker_ = std::thread([this] { MergeWorkerLoop(); });
  }
}

MutableStore::~MutableStore() {
  if (merge_worker_.joinable()) {
    {
      MutexLock lock(&mutex_);
      stop_worker_ = true;
    }
    merge_cv_.NotifyAll();
    merge_worker_.join();
  }
}

RankingId MutableStore::Insert(RankingView record) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(record.k() == k_);
  const RankingId local = delta_.store.AddUnchecked(record.items());
  // Index the stored copy, not the caller's buffer: the view must stay
  // valid for as long as the index entry does.
  delta_.index.Insert(local, delta_.store.view(local));
  const RankingId global = next_global_id_++;
  delta_.global_ids.push_back(global);
  deleted_.push_back(false);
  BumpGenerationLocked();
  if (options_.merge_threshold > 0 &&
      delta_.store.size() >= options_.merge_threshold) {
    merge_cv_.NotifyAll();
  }
  return global;
}

bool MutableStore::Delete(RankingId id) {
  MutexLock lock(&mutex_);
  if (!ContainsLocked(id)) return false;
  deleted_[id] = true;
  tombstones_.insert(id);
  BumpGenerationLocked();
  return true;
}

bool MutableStore::Contains(RankingId id) const {
  MutexLock lock(&mutex_);
  return ContainsLocked(id);
}

bool MutableStore::ContainsLocked(RankingId id) const {
  // Only deleted rows are ever compacted away, so every assigned id that
  // was never deleted is physically present in some segment.
  return id < deleted_.size() && !deleted_[id];
}

size_t MutableStore::live_size() const {
  MutexLock lock(&mutex_);
  // Every tombstone refers to a physically present row (consumed ones
  // are erased at the swap), so alive = physical - tombstoned.
  const size_t physical = main_->store.size() + delta_.store.size() +
                          (sealed_ != nullptr ? sealed_->store.size() : 0);
  return physical - tombstones_.size();
}

size_t MutableStore::delta_size() const {
  MutexLock lock(&mutex_);
  return delta_.store.size();
}

size_t MutableStore::tombstone_count() const {
  MutexLock lock(&mutex_);
  return tombstones_.size();
}

size_t MutableStore::total_inserted() const {
  MutexLock lock(&mutex_);
  return next_global_id_;
}

void MutableStore::AddMutationListener(std::function<void()> listener) {
  MutexLock lock(&mutex_);
  listeners_.push_back(std::move(listener));
}

void MutableStore::BumpGenerationLocked() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (const auto& listener : listeners_) listener();
}

template <typename Index>
void MutableStore::CollectRangeLocked(const RankingStore& seg_store,
                                      const Index& index,
                                      const std::vector<RankingId>& global_ids,
                                      RankingView query, RawDistance theta_raw,
                                      std::vector<RankingId>* out,
                                      Statistics* stats,
                                      QueryControl* control) {
  if (seg_store.empty()) return;
  if (control != nullptr && control->ShouldStop()) return;
  validator_.BindQuery(query,
                       static_cast<size_t>(seg_store.max_item()) + 1);
  // Tombstoned rows are dropped BEFORE validation: a dead row never
  // costs a distance call. RangeCandidates owns the list choice (the
  // paper's list dropping below dmax, every row at theta >= dmax).
  pending_.clear();
  for (const RankingId local : RangeCandidates(
           index, query, theta_raw, seg_store.size(), &filter_, stats)) {
    if (!deleted_[global_ids[local]]) pending_.push_back(local);
  }
  AddTicker(stats, Ticker::kCandidates, pending_.size());
  accepted_.clear();
  validator_.ValidateSpan(seg_store, pending_, theta_raw, &accepted_, stats,
                          control);
  for (const RankingId local : accepted_) {
    out->push_back(global_ids[local]);
  }
}

std::vector<RankingId> MutableStore::RangeQuery(const PreparedQuery& query,
                                                RawDistance theta_raw,
                                                Statistics* stats) {
  std::vector<RankingId> out;
  const Status status = RangeQuery(query, theta_raw, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // unconstrained queries cannot stop
  (void)status;
  return out;
}

Status MutableStore::RangeQuery(const PreparedQuery& query,
                                RawDistance theta_raw, QueryControl* control,
                                std::vector<RankingId>* out,
                                Statistics* stats) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(query.k() == k_);
  out->clear();
  CollectRangeLocked(main_->store, main_->index, main_->global_ids,
                     query.view(), theta_raw, out, stats, control);
  if (sealed_ != nullptr) {
    CollectRangeLocked(sealed_->store, sealed_->index, sealed_->global_ids,
                       query.view(), theta_raw, out, stats, control);
  }
  CollectRangeLocked(delta_.store, delta_.index, delta_.global_ids,
                     query.view(), theta_raw, out, stats, control);
  if (control != nullptr && control->stopped()) {
    // Partial per-segment results are not an answer; discard them so a
    // caller can never mistake a timed-out query for a small result.
    out->clear();
    return StopStatus(*control, "range query", stats);
  }
  // Per-segment accepts arrive in filter order; one sort restores the
  // ascending-global-id contract (segment id ranges are disjoint, so
  // this equals a k-way merge of sorted per-segment lists).
  std::sort(out->begin(), out->end());
  AddTicker(stats, Ticker::kResults, out->size());
  return Status::OK();
}

namespace {

/// A segment row's global id as the k-NN kernel sees it:
/// kInvalidRankingId masks a deleted row before any distance call.
struct AliveGlobalId {
  const std::vector<RankingId>& global_ids;
  const std::vector<bool>& deleted;

  RankingId operator()(RankingId local) const {
    const RankingId global = global_ids[local];
    return deleted[global] ? kInvalidRankingId : global;
  }
};

}  // namespace

template <typename Index>
void MutableStore::SearchKnnLocked(const RankingStore& seg_store,
                                   const Index& index,
                                   const std::vector<RankingId>& global_ids,
                                   RankingView query, NeighborHeap* heap,
                                   Statistics* stats, QueryControl* control) {
  KnnSearchSegment(index, seg_store, query,
                   AliveGlobalId{global_ids, deleted_}, &validator_,
                   &filter_, heap, stats, control);
}

void MutableStore::ScanKnnLocked(const RankingStore& seg_store,
                                 const std::vector<RankingId>& global_ids,
                                 RankingView query, NeighborHeap* heap,
                                 Statistics* stats, QueryControl* control) {
  const AliveGlobalId alive{global_ids, deleted_};
  KnnScanSegment(seg_store, query, alive,  // knn-scan-ok: unproven by index
                 &validator_, heap, stats, control);
}

std::vector<Neighbor> MutableStore::KnnQuery(const PreparedQuery& query,
                                             size_t j, Statistics* stats) {
  std::vector<Neighbor> out;
  const Status status = KnnQuery(query, j, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // unconstrained queries cannot stop
  (void)status;
  return out;
}

Status MutableStore::KnnQuery(const PreparedQuery& query, size_t j,
                              QueryControl* control,
                              std::vector<Neighbor>* out, Statistics* stats) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(query.k() == k_);
  out->clear();
  const RankingView q = query.view();
  // One heap across the segments, main first: its bound from the big
  // segment stops the small ones after a few lists.
  NeighborHeap heap(j);
  SearchKnnLocked(main_->store, main_->index, main_->global_ids, q, &heap,
                  stats, control);
  if (sealed_ != nullptr) {
    SearchKnnLocked(sealed_->store, sealed_->index, sealed_->global_ids, q,
                    &heap, stats, control);
  }
  SearchKnnLocked(delta_.store, delta_.index, delta_.global_ids, q, &heap,
                  stats, control);
  const bool stopped = control != nullptr && control->stopped();
  if (!stopped && !KnnIndexProvesAnswer(heap, k_)) {
    // Fewer than j alive rows share an item with the query, or a row
    // disjoint from it could still tie at dmax: no posting list holds
    // those rows, so the answer comes from an exhaustive rerun.
    heap.Reset(j);
    ScanKnnLocked(main_->store, main_->global_ids, q, &heap, stats, control);
    if (sealed_ != nullptr) {
      ScanKnnLocked(sealed_->store, sealed_->global_ids, q, &heap, stats,
                    control);
    }
    ScanKnnLocked(delta_.store, delta_.global_ids, q, &heap, stats, control);
  }
  if (control != nullptr && control->stopped()) {
    return StopStatus(*control, "knn query", stats);
  }
  *out = std::move(heap).Finish();
  return Status::OK();
}

void MutableStore::SealLocked() {
  auto sealed = std::make_shared<DeltaSegment>(std::move(delta_));
  // The fresh delta reuses the moved-from DeltaInvertedIndex directly:
  // the fixed move operations leave it in the documented empty state
  // (regression-pinned in adapt_delta_test). RankingStore's implicit
  // move keeps its scalar fields, so the store is re-made explicitly.
  delta_.store = RankingStore(k_);
  delta_.global_ids.clear();
  sealed_ = std::move(sealed);
}

void MutableStore::InstallMergedLocked(
    std::shared_ptr<const MainSegment> next,
    const std::unordered_set<RankingId>& consumed) {
  main_ = std::move(next);
  sealed_.reset();
  // Tombstones the rebuild consumed are physically gone; ones added
  // while it ran still refer to rows in the new main or the fresh delta
  // and keep filtering until the next merge compacts them.
  for (const RankingId id : consumed) tombstones_.erase(id);
  BumpGenerationLocked();
  merge_cv_.NotifyAll();
}

std::shared_ptr<const MutableStore::MainSegment>
MutableStore::BuildMergedSegment(
    const MainSegment& main, const DeltaSegment& sealed,
    const std::unordered_set<RankingId>& dead) const {
  auto next = std::make_shared<MainSegment>(k_);
  next->store.Reserve(main.store.size() + sealed.store.size());
  next->global_ids.reserve(main.store.size() + sealed.store.size());
  const auto append_alive = [&next, &dead](
                                const RankingStore& store,
                                const std::vector<RankingId>& globals) {
    const auto n = static_cast<RankingId>(store.size());
    for (RankingId local = 0; local < n; ++local) {
      const RankingId global = globals[local];
      if (dead.count(global) != 0) continue;
      next->store.AddUnchecked(store.view(local).items());
      next->global_ids.push_back(global);
    }
  };
  // Main then sealed keeps global ids ascending: every main id predates
  // every sealed id (ids are assigned in insert order and merges fold
  // oldest-first).
  append_alive(main.store, main.global_ids);
  append_alive(sealed.store, sealed.global_ids);
  next->index = PlainInvertedIndex::Build(next->store);
  return next;
}

void MutableStore::BackoffSleep(int attempt) const {
  const int shift = std::min(attempt - 1, 20);
  const double base =
      options_.merge_backoff_initial_ms * static_cast<double>(1ull << shift);
  const double capped =
      std::min(base, std::max(options_.merge_backoff_max_ms,
                              options_.merge_backoff_initial_ms));
  // Deterministic full jitter in [capped/2, capped]: decorrelates
  // colliding retriers without nondeterminism in tests.
  const uint64_t mixed = SplitMix64(options_.merge_backoff_seed ^
                                    static_cast<uint64_t>(attempt));
  const double fraction = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  const double ms = capped * (0.5 + 0.5 * fraction);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::shared_ptr<const MutableStore::MainSegment>
MutableStore::BuildMergedSegmentWithRetries(
    const MainSegment& main, const DeltaSegment& sealed,
    const std::unordered_set<RankingId>& dead) {
  const int max_attempts = std::max(1, options_.merge_max_attempts);
  for (int attempt = 1;; ++attempt) {
    if (!TOPK_FAILPOINT("mutate.merge.rebuild")) {
      try {
        return BuildMergedSegment(main, sealed, dead);
      } catch (const std::bad_alloc&) {
        // Allocation pressure is the one real-world failure a rebuild
        // has; it is exactly as transient as an injected fault.
      }
    }
    merge_retries_.fetch_add(1, std::memory_order_acq_rel);
    if (attempt >= max_attempts) return nullptr;
    BackoffSleep(attempt);
  }
}

MutableStore::MergeInputs MutableStore::StartMergeCycleLocked() {
  merge_in_flight_ = true;
  MergeInputs inputs;
  if (sealed_ == nullptr) {
    SealLocked();
    inputs.consumed = tombstones_;  // delta is now empty: all consumable
  } else {
    // A sealed segment left over from a failed cycle: the active delta
    // has kept absorbing writes since, so only tombstones on rows this
    // rebuild actually drops may be retired at the swap — erasing a
    // delta-row tombstone here would resurrect the row.
    for (const RankingId id : tombstones_) {
      if (std::binary_search(main_->global_ids.begin(),
                             main_->global_ids.end(), id) ||
          std::binary_search(sealed_->global_ids.begin(),
                             sealed_->global_ids.end(), id)) {
        inputs.consumed.insert(id);
      }
    }
  }
  inputs.main = main_;
  inputs.sealed = sealed_;
  return inputs;
}

bool MutableStore::FinishMergeCycle(MergeInputs inputs) {
  // The rebuild runs with no lock held: writers land in the fresh
  // delta and readers query main + sealed + delta the whole time.
  auto next = BuildMergedSegmentWithRetries(*inputs.main, *inputs.sealed,
                                            inputs.consumed);
  {
    MutexLock lock(&mutex_);
    merge_in_flight_ = false;
    if (next == nullptr) {
      // Circuit breaker: stop burning rebuild attempts. The sealed
      // segment stays installed and keeps serving exactly alongside the
      // delta (degraded but correct); MergeNow()/ResetMergeCircuit()
      // close the circuit.
      merge_circuit_open_ = true;
      last_merge_status_ = Status::Aborted(
          "merge rebuild failed after " +
          std::to_string(std::max(1, options_.merge_max_attempts)) +
          " attempts; circuit open, serving from sealed + delta");
      merge_cv_.NotifyAll();
      return false;
    }
    last_merge_status_ = Status::OK();
    InstallMergedLocked(next, inputs.consumed);
  }
  // The merged inputs are unreachable once the swap is installed; drop
  // this cycle's references before the emission builds its compressed
  // image, so the old segment, the new one and the emission buffers are
  // never resident at once.
  inputs.main.reset();
  inputs.sealed.reset();
  MaybeEmitSnapshot(*next);
#if defined(__GLIBC__)
  // Each cycle frees a whole segment and the emission buffers. glibc
  // keeps most of that in its heaps rather than returning it, so without
  // a trim the resident set grows with the number of merges.
  malloc_trim(0);
#endif
  return true;
}

bool MutableStore::MergeNow() {
  MergeInputs inputs;
  {
    MutexLock lock(&mutex_);
    while (merge_in_flight_) merge_cv_.Wait(mutex_);
    // An explicit MergeNow doubles as the recovery lever: close an open
    // circuit and try again.
    merge_circuit_open_ = false;
    if (sealed_ == nullptr && delta_.store.empty() && tombstones_.empty()) {
      return false;
    }
    inputs = StartMergeCycleLocked();
  }
  return FinishMergeCycle(std::move(inputs));
}

void MutableStore::MergeWorkerLoop() {
  while (true) {
    MergeInputs inputs;
    {
      MutexLock lock(&mutex_);
      while (!stop_worker_ &&
             (merge_in_flight_ || merge_circuit_open_ ||
              delta_.store.size() < options_.merge_threshold)) {
        merge_cv_.Wait(mutex_);
      }
      if (stop_worker_) return;
      inputs = StartMergeCycleLocked();
    }
    FinishMergeCycle(std::move(inputs));
  }
}

void MutableStore::MaybeEmitSnapshot(const MainSegment& segment) {
  if (snapshot_manager_ == nullptr) return;
  Status status;
  if (segment.store.empty()) {
    // WriteStoreSnapshot rejects empty stores; a merge that compacted
    // everything away simply leaves the previous snapshot in place.
    status = Status::FailedPrecondition(
        "merge produced an empty segment; snapshot not rewritten");
  } else {
    const auto arena = storage::CompressedPostingArena<RankingId>::FromArena(
        segment.index.arena());
    // Emission gets the same retry-with-backoff treatment as the
    // rebuild: a transient write failure must not cost the durability of
    // this merge's image. Exhausted attempts are recorded, not thrown —
    // the in-RAM store is unaffected either way.
    const int max_attempts = std::max(1, options_.merge_max_attempts);
    for (int attempt = 1;; ++attempt) {
      status = TOPK_FAILPOINT("mutate.snapshot.emit")
                   ? Status::IOError("injected failure: mutate.snapshot.emit")
                   : snapshot_manager_->WriteSnapshot(segment.store, arena);
      if (status.ok() || attempt >= max_attempts) break;
      merge_retries_.fetch_add(1, std::memory_order_acq_rel);
      BackoffSleep(attempt);
    }
  }
  MutexLock lock(&mutex_);
  last_snapshot_status_ = status;
}

Status MutableStore::last_snapshot_status() const {
  MutexLock lock(&mutex_);
  return last_snapshot_status_;
}

Status MutableStore::last_merge_status() const {
  MutexLock lock(&mutex_);
  return last_merge_status_;
}

bool MutableStore::merge_circuit_open() const {
  MutexLock lock(&mutex_);
  return merge_circuit_open_;
}

void MutableStore::ResetMergeCircuit() {
  {
    MutexLock lock(&mutex_);
    merge_circuit_open_ = false;
  }
  merge_cv_.NotifyAll();
}

}  // namespace topk
