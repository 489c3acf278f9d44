// Fault-tolerant serving: deadlines and cancellation through every
// front door (QueryFrontend batches, LiveFrontend, ParallelRunner,
// MutableStore), admission-control shedding under real overload, the
// merge circuit breaker with MergeNow recovery, and ResilientReader's
// degraded-read fallback. Stopped or shed queries must return Status
// errors with empty results — never hang, never cache, never publish a
// partial answer — while every OK answer stays bit-exact. The
// failpoint-driven cases need -DTOPK_FAILPOINTS=ON and skip elsewhere;
// the suite also runs under the TSan CI leg.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/deadline.h"
#include "core/failpoint.h"
#include "core/ranking.h"
#include "core/types.h"
#include "harness/parallel_runner.h"
#include "harness/sharded_store.h"
#include "invidx/plain_inverted_index.h"
#include "metric/knn.h"
#include "mutate/mutable_store.h"
#include "serve/frontend.h"
#include "serve/live_frontend.h"
#include "serve/resilient_reader.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot_manager.h"
#include "test_util.h"

namespace topk {
namespace {

/// Arms one failpoint for the enclosing scope and disarms on exit, so a
/// failing test cannot leak an armed site into its successors.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, FailpointSpec spec)
      : site_(std::move(site)) {
    FailpointRegistry::Instance().Arm(site_, spec);
  }
  ~ScopedFailpoint() { FailpointRegistry::Instance().Disarm(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

/// Spin until `ready()` or a generous wall-clock cap (never hangs CI).
template <typename F>
bool SpinUntil(const F& ready) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

class ServeRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = testutil::MakeClusteredStore(/*k=*/10, /*n=*/2000, /*seed=*/81);
    queries_ = testutil::MakeQueries(store_, 8, /*seed=*/82);
    theta_ = RawThreshold(0.3, store_.k());
  }

  RankingStore store_{10};
  std::vector<PreparedQuery> queries_;
  RawDistance theta_ = 0;
};

TEST_F(ServeRobustnessTest, ExpiredDeadlineFailsFastOthersServeExactly) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kFV, query, theta_));
  }
  requests[2].deadline = Deadline::AfterMillis(-1.0);
  requests[5].deadline = Deadline::AfterMillis(-1.0);

  Statistics stats;
  const auto responses = frontend.ServeBatch(requests, &stats);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(responses[i].status.code(), Status::Code::kDeadlineExceeded);
      EXPECT_TRUE(responses[i].ids.empty());
    } else {
      ASSERT_TRUE(responses[i].status.ok());
      EXPECT_EQ(responses[i].ids,
                testutil::BruteForce(store_, *requests[i].query, theta_));
    }
  }
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 2u);
}

TEST_F(ServeRobustnessTest, StoppedRequestsAreNeverCached) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  QueryFrontend frontend(&store_, options);

  ServeRequest expired =
      ServeRequest::Range(Algorithm::kFV, queries_[0], theta_);
  expired.deadline = Deadline::AfterMillis(-1.0);
  const auto failed = frontend.ServeBatch({&expired, 1});
  ASSERT_EQ(failed[0].status.code(), Status::Code::kDeadlineExceeded);

  // The identical query re-issued with time to spare computes fresh (no
  // poisoned entry from the stopped run) and only THEN becomes cached.
  const ServeRequest fine =
      ServeRequest::Range(Algorithm::kFV, queries_[0], theta_);
  const auto first = frontend.ServeBatch({&fine, 1});
  ASSERT_TRUE(first[0].status.ok());
  EXPECT_FALSE(first[0].result_cache_hit);
  EXPECT_EQ(first[0].ids,
            testutil::BruteForce(store_, queries_[0], theta_));
  const auto second = frontend.ServeBatch({&fine, 1});
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_TRUE(second[0].result_cache_hit);
  EXPECT_EQ(second[0].ids, first[0].ids);
}

TEST_F(ServeRobustnessTest, CancelledTokenAbortsItsRequests) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  options.result_cache_capacity = 0;  // force real execution
  options.candidate_cache_capacity = 0;
  QueryFrontend frontend(&store_, options);

  CancelToken cancel;
  cancel.Cancel();  // tripped before the batch even starts
  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    ServeRequest request = ServeRequest::Range(Algorithm::kFV, query, theta_);
    request.cancel = &cancel;
    requests.push_back(request);
  }
  Statistics stats;
  const auto responses = frontend.ServeBatch(requests, &stats);
  for (const ServeResponse& response : responses) {
    EXPECT_EQ(response.status.code(), Status::Code::kAborted);
    EXPECT_TRUE(response.ids.empty());
  }
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), requests.size());
}

TEST_F(ServeRobustnessTest, OverloadShedsWholeBatchesWithRetryAfter) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  options.max_inflight_batches = 1;
  options.shed_retry_after_ms = 7.5;
  options.result_cache_capacity = 0;  // keep the long batch long
  options.candidate_cache_capacity = 0;
  QueryFrontend frontend(&store_, options);
  frontend.Prepare(Algorithm::kFV);

  // A big cancellable batch occupies the admission slot...
  CancelToken cancel;
  std::vector<ServeRequest> slow;
  for (int round = 0; round < 500; ++round) {
    for (const PreparedQuery& query : queries_) {
      ServeRequest request = ServeRequest::Range(Algorithm::kFV, query,
                                                 theta_);
      request.cancel = &cancel;
      slow.push_back(request);
    }
  }
  std::vector<ServeResponse> slow_responses;
  std::thread runner([&] { slow_responses = frontend.ServeBatch(slow); });
  ASSERT_TRUE(SpinUntil([&] { return frontend.inflight_batches() >= 1; }));

  // ...so a batch arriving now is shed whole: Unavailable + the
  // configured back-off hint, no engine ever runs for it.
  std::vector<ServeRequest> probe;
  for (const PreparedQuery& query : queries_) {
    probe.push_back(ServeRequest::Range(Algorithm::kFV, query, theta_));
  }
  Statistics stats;
  const auto shed = frontend.ServeBatch(probe, &stats);
  cancel.Cancel();
  runner.join();

  ASSERT_EQ(shed.size(), probe.size());
  for (const ServeResponse& response : shed) {
    EXPECT_EQ(response.status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(response.retry_after_ms, 7.5);
    EXPECT_TRUE(response.ids.empty());
  }
  EXPECT_EQ(stats.Get(Ticker::kLoadShed), probe.size());
  EXPECT_EQ(frontend.inflight_batches(), 0u);

  // The admitted batch finished every request: exactly (before the
  // cancel landed) or as a clean Abort (after) — never a hang, never a
  // truncated answer presented as OK.
  ASSERT_EQ(slow_responses.size(), slow.size());
  size_t aborted = 0;
  for (size_t i = 0; i < slow_responses.size(); ++i) {
    const ServeResponse& response = slow_responses[i];
    if (response.status.ok()) {
      EXPECT_EQ(response.ids,
                testutil::BruteForce(store_, *slow[i].query, theta_));
    } else {
      EXPECT_EQ(response.status.code(), Status::Code::kAborted);
      EXPECT_TRUE(response.ids.empty());
      ++aborted;
    }
  }
  EXPECT_GT(aborted, 0u);
}

// ---------------------------------------------------------------------------

TEST(LiveFrontendRobustnessTest, DeadlineAndCancelStatusPaths) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 1500, 91);
  MutableStore store(initial);
  LiveFrontend frontend(&store);
  const auto queries = testutil::MakeQueries(initial, 4, 92);
  const RawDistance theta = RawThreshold(0.3, initial.k());

  // Pre-expired deadline: DeadlineExceeded, empty, and nothing cached.
  QueryControl expired(Deadline::AfterMillis(-1.0));
  std::vector<RankingId> out{99};
  Statistics stats;
  const Status status =
      frontend.ServeRange(queries[0], theta, &expired, &out, &stats);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(stats.Get(Ticker::kDeadlineExceeded), 1u);
  EXPECT_EQ(frontend.result_cache_size(), 0u);

  // Cancelled token: Aborted, empty, not cached.
  CancelToken token;
  token.Cancel();
  QueryControl cancelled(Deadline::Infinite(), &token);
  const Status aborted =
      frontend.ServeRange(queries[0], theta, &cancelled, &out);
  EXPECT_EQ(aborted.code(), Status::Code::kAborted);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(frontend.result_cache_size(), 0u);

  // Unconstrained Status path answers exactly and matches the legacy
  // vector front door; the k-NN overload follows the same contract.
  ASSERT_TRUE(frontend.ServeRange(queries[0], theta, nullptr, &out).ok());
  EXPECT_EQ(out, testutil::BruteForce(initial, queries[0], theta));
  EXPECT_EQ(frontend.ServeRange(queries[0], theta), out);

  std::vector<Neighbor> neighbors;
  QueryControl knn_expired(Deadline::AfterMillis(-1.0));
  EXPECT_EQ(frontend.ServeKnn(queries[1], 5, &knn_expired, &neighbors).code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(neighbors.empty());
  ASSERT_TRUE(frontend.ServeKnn(queries[1], 5, nullptr, &neighbors).ok());
  EXPECT_EQ(neighbors, frontend.ServeKnn(queries[1], 5));
}

TEST(LiveFrontendRobustnessTest, ConcurrentOverloadShedsNotHangs) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 4000, 101);
  MutableStore store(initial);
  LiveFrontendOptions options;
  options.max_inflight = 1;
  options.result_cache_capacity = 0;  // every call does real work
  options.shed_retry_after_ms = 3.25;
  LiveFrontend frontend(&store, options);
  const auto queries = testutil::MakeQueries(initial, 16, 102);
  const RawDistance dmax = MaxDistance(initial.k());

  std::vector<std::vector<RankingId>> expected;
  expected.reserve(queries.size());
  for (const PreparedQuery& query : queries) {
    expected.push_back(testutil::BruteForce(initial, query, dmax));
  }

  // Four threads hammer one admission slot until the run has observed
  // both outcomes (someone served, someone shed); the round cap keeps a
  // broken build from spinning forever. Every OK answer must be exact,
  // every shed must be the documented Unavailable-and-empty shape.
  constexpr size_t kThreads = 4;
  constexpr size_t kMaxRounds = 20'000;
  std::atomic<size_t> served{0};
  std::atomic<size_t> shed{0};
  std::atomic<int> wrong{0};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::vector<RankingId> ids;
      for (size_t round = 0; round < kMaxRounds; ++round) {
        if (served.load() > 0 && shed.load() > 0) break;
        const size_t qi = (t * 31 + round) % queries.size();
        const Status status =
            frontend.ServeRange(queries[qi], dmax, nullptr, &ids);
        if (status.ok()) {
          if (ids != expected[qi]) wrong.fetch_add(1);
          served.fetch_add(1);
        } else if (status.code() == Status::Code::kUnavailable) {
          if (!ids.empty()) wrong.fetch_add(1);
          shed.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(shed.load(), 0u);
  EXPECT_EQ(frontend.inflight(), 0u);
}

TEST(LiveFrontendRobustnessTest, CacheHitBeatsSheddingDuringOverload) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 20000, 111);
  MutableStore store(initial);
  LiveFrontendOptions options;
  options.max_inflight = 1;
  LiveFrontend frontend(&store, options);
  const auto queries = testutil::MakeQueries(initial, 4, 112);
  const RawDistance theta = RawThreshold(0.3, initial.k());

  // Prime the cache while the store is idle.
  std::vector<RankingId> cached;
  ASSERT_TRUE(frontend.ServeRange(queries[0], theta, nullptr, &cached).ok());

  // A worker keeps the admission slot busy with a run of k-NN scans (j
  // varies per round, so every one is a cache miss — real work) while
  // the main thread probes. Both sides treat Unavailable as the benign
  // mutual contention it is and back off; no fatal asserts run while
  // the worker is joinable — failures are recorded and checked after
  // the join.
  std::atomic<bool> stop{false};
  std::atomic<bool> slow_done{false};
  std::atomic<int> slow_failures{0};
  std::thread slow([&] {
    size_t scans = 0;
    for (size_t round = 0; scans < 60 && round < 100'000 && !stop.load();
         ++round) {
      std::vector<Neighbor> out;
      const Status status =
          frontend.ServeKnn(queries[1], 100 + round, nullptr, &out);
      if (status.ok()) {
        ++scans;
      } else if (status.code() == Status::Code::kUnavailable) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        slow_failures.fetch_add(1);
      }
    }
    slow_done.store(true);
  });

  bool observed_shed = false;
  bool hit_failed = false;
  for (size_t iter = 0; !slow_done.load() && !observed_shed; ++iter) {
    // A cached answer serves even with the admission slot occupied (the
    // lookup is cheaper than building the rejection)...
    std::vector<RankingId> hit_out;
    const Status hit = frontend.ServeRange(queries[0], theta, nullptr,
                                           &hit_out);
    if (!hit.ok() || hit_out != cached) hit_failed = true;
    // ...while an uncached arrival lands on the admission gauge and is
    // shed whenever the probe overlaps a scan. The probe's j is unique
    // per iteration: a repeated key would be served from the result
    // cache after its first OK round and could never observe the shed.
    std::vector<Neighbor> miss_out;
    const Status miss =
        frontend.ServeKnn(queries[2], 5000 + iter, nullptr, &miss_out);
    if (miss.code() == Status::Code::kUnavailable) {
      EXPECT_TRUE(miss_out.empty());
      observed_shed = true;
    } else {
      EXPECT_TRUE(miss.ok()) << miss.ToString();
      // Leave a gap so the worker can claim the slot for its next scan.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  stop.store(true);
  slow.join();
  EXPECT_EQ(slow_failures.load(), 0);
  EXPECT_FALSE(hit_failed) << "a primed cache key failed during overload";
  EXPECT_TRUE(observed_shed) << "never caught the store mid-query";
}

// An invalidation inside a Serve* call makes its answer unservable on
// arrival, so the frontend must not copy it into the cache. Made
// deterministic by the store's listener order: a listener registered
// before the frontend's parks a writer's Insert under the store mutex,
// so the frontend's epoch bump (the next listener) is held back until
// the reader has read its epoch, and the reader's store query runs only
// after that bump. inflight() counts a call only once its epoch is read.
TEST(LiveFrontendRobustnessTest, InvalidationInsideTheCallSkipsCacheInsert) {
  constexpr uint32_t kK = 5;
  const RankingStore source = testutil::MakeClusteredStore(kK, 80, 1121);
  MutableStore store(kK);
  for (RankingId id = 0; id < 60; ++id) store.Insert(source.view(id));
  std::atomic<bool> park{false};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  store.AddMutationListener([&] {
    if (!park.load()) return;
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  LiveFrontend frontend(&store, {});  // its listener runs after the park

  RankingId next_row = 60;
  const auto serve_during_insert = [&](const auto& serve) {
    park.store(true);
    parked.store(false);
    release.store(false);
    std::thread writer([&] { store.Insert(source.view(next_row)); });
    const bool writer_parked = SpinUntil([&] { return parked.load(); });
    std::thread reader(serve);
    const bool reader_in = SpinUntil([&] { return frontend.inflight() == 1; });
    release.store(true);
    writer.join();
    reader.join();
    park.store(false);
    ++next_row;
    EXPECT_TRUE(writer_parked);
    EXPECT_TRUE(reader_in);
  };

  // The query is row 60, which the first raced insert adds: the answer
  // the reader computes already holds it.
  const PreparedQuery query(source.Materialize(60));
  const RawDistance theta_raw = RawThreshold(0.2, kK);
  std::vector<RankingId> range;
  serve_during_insert([&] {
    EXPECT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &range).ok());
  });
  EXPECT_EQ(frontend.result_cache_size(), 0u);
  EXPECT_EQ(range, store.RangeQuery(query, theta_raw));  // after the insert

  std::vector<Neighbor> knn;
  serve_during_insert([&] {
    EXPECT_TRUE(frontend.ServeKnn(query, 5, nullptr, &knn).ok());
  });
  EXPECT_EQ(frontend.result_cache_size(), 0u);
  EXPECT_EQ(knn, store.KnnQuery(query, 5));

  // Control: the same calls in a quiet epoch do cache their answers.
  EXPECT_EQ(frontend.ServeRange(query, theta_raw),
            store.RangeQuery(query, theta_raw));
  EXPECT_EQ(frontend.ServeKnn(query, 5), store.KnnQuery(query, 5));
  EXPECT_EQ(frontend.result_cache_size(), 2u);
}

// ---------------------------------------------------------------------------

TEST(MergeCircuitBreakerTest, OpensAfterRetriesAndMergeNowRecovers) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  const uint32_t kK = 10;
  const RankingStore initial = testutil::MakeClusteredStore(kK, 300, 121);
  MutableStoreOptions options;
  options.merge_max_attempts = 2;
  options.merge_backoff_initial_ms = 0.01;
  options.merge_backoff_max_ms = 0.02;
  MutableStore store(initial, options);

  // Grow a delta so there is something to merge, mirrored into the
  // brute-force oracle.
  RankingStore combined(kK);
  for (RankingId id = 0; id < initial.size(); ++id) {
    combined.AddUnchecked(initial.view(id).items());
  }
  const RankingStore extra = testutil::MakeClusteredStore(kK, 40, 122);
  for (RankingId id = 0; id < extra.size(); ++id) {
    store.Insert(extra.view(id));
    combined.AddUnchecked(extra.view(id).items());
  }

  const auto queries = testutil::MakeQueries(combined, 4, 123);
  const RawDistance theta = RawThreshold(0.3, kK);

  {
    // Every rebuild attempt fails: the cycle retries, gives up, and the
    // circuit opens — while serving stays exact off sealed + delta.
    ScopedFailpoint fault("mutate.merge.rebuild", FailpointSpec{});
    EXPECT_FALSE(store.MergeNow());
    EXPECT_TRUE(store.merge_circuit_open());
    EXPECT_FALSE(store.last_merge_status().ok());
    EXPECT_GE(store.merge_retries(), 1u);
    for (const PreparedQuery& query : queries) {
      EXPECT_EQ(store.RangeQuery(query, theta),
                testutil::BruteForce(combined, query, theta));
    }
  }

  // Fault cleared: MergeNow is the operator lever — it closes the
  // circuit, merges, and exactness holds over the compacted store.
  EXPECT_TRUE(store.MergeNow());
  EXPECT_FALSE(store.merge_circuit_open());
  EXPECT_TRUE(store.last_merge_status().ok());
  EXPECT_EQ(store.delta_size(), 0u);
  for (const PreparedQuery& query : queries) {
    EXPECT_EQ(store.RangeQuery(query, theta),
              testutil::BruteForce(combined, query, theta));
  }
}

// ---------------------------------------------------------------------------

class ResilientReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = testutil::MakeClusteredStore(/*k=*/10, /*n=*/800, /*seed=*/131);
    queries_ = testutil::MakeQueries(store_, 6, /*seed=*/132);
    dir_ = testing::TempDir() + "/resilient_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void WriteSnapshot() {
    storage::SnapshotManager manager(dir_);
    const PlainInvertedIndex plain = PlainInvertedIndex::Build(store_);
    const auto arena =
        storage::CompressedPostingArena<RankingId>::FromArena(plain.arena());
    ASSERT_TRUE(manager.WriteSnapshot(store_, arena).ok());
  }

  std::vector<RawDistance> Thetas() const {
    const RawDistance dmax = MaxDistance(store_.k());
    return {dmax / 4, dmax / 2, dmax};
  }

  RankingStore store_{10};
  std::vector<PreparedQuery> queries_;
  std::string dir_;
};

TEST_F(ResilientReaderTest, RamOnlyWhenNoSnapshotExists) {
  ResilientReader reader(&store_, {dir_, 3});
  EXPECT_EQ(reader.OpenSnapshotTier().code(), Status::Code::kNotFound);
  EXPECT_FALSE(reader.snapshot_open());
  EXPECT_FALSE(reader.degraded());
  for (const RawDistance theta : Thetas()) {
    for (const PreparedQuery& query : queries_) {
      EXPECT_EQ(reader.RangeQuery(query, theta),
                testutil::BruteForce(store_, query, theta));
    }
  }
}

TEST_F(ResilientReaderTest, SnapshotTierAnswersBitExactly) {
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  EXPECT_TRUE(reader.snapshot_open());
  EXPECT_EQ(reader.snapshot_generation(), 1u);
  Statistics stats;
  for (const RawDistance theta : Thetas()) {
    for (const PreparedQuery& query : queries_) {
      EXPECT_EQ(reader.RangeQuery(query, theta, &stats),
                testutil::BruteForce(store_, query, theta))
          << "theta=" << theta;
    }
  }
  EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 0u);
  EXPECT_FALSE(reader.degraded());
}

// The snapshot tier reads only the lists SelectLists keeps (list
// dropping). Sweep every raw theta in [0, dmax] — both sides of each
// MinDistanceForOverlap(k, w) + 1 refinement boundary, and dmax itself,
// where the tier validates every row — for k = 10 and k = 5.
TEST_F(ResilientReaderTest, SnapshotTierSweepsEveryThetaExactly) {
  for (const uint32_t k : {10u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    store_ = testutil::MakeClusteredStore(k, 600, 133 + k);
    queries_ = testutil::MakeQueries(store_, 5, 134 + k);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    WriteSnapshot();
    ResilientReader reader(&store_, {dir_, 3});
    ASSERT_TRUE(reader.OpenSnapshotTier().ok());
    for (RawDistance theta = 0; theta <= MaxDistance(k); ++theta) {
      for (const PreparedQuery& query : queries_) {
        ASSERT_EQ(reader.RangeQuery(query, theta),
                  testutil::BruteForce(store_, query, theta))
            << "theta=" << theta;
      }
    }
    EXPECT_FALSE(reader.degraded());
    if (k == 10) {
      Statistics stats;
      for (const PreparedQuery& query : queries_) {
        reader.RangeQuery(query, RawThreshold(0.1, k), &stats);
      }
      EXPECT_GT(stats.Get(Ticker::kListsDropped), 0u)
          << "the snapshot tier must drop lists at theta = 0.1";
    }
  }
}

TEST_F(ResilientReaderTest, SnapshotFaultDegradesStickilyThenRestores) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  const RawDistance theta = RawThreshold(0.3, store_.k());

  {
    FailpointSpec one_shot;
    one_shot.max_fires = 1;
    ScopedFailpoint fault("serve.snapshot.query", one_shot);
    // The faulting read degrades to RAM and STILL answers exactly — the
    // user sees a correct result, the operator sees the ticker.
    Statistics stats;
    EXPECT_EQ(reader.RangeQuery(queries_[0], theta, &stats),
              testutil::BruteForce(store_, queries_[0], theta));
    EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 1u);
    EXPECT_TRUE(reader.degraded());
    EXPECT_FALSE(reader.snapshot_open());
  }

  // Sticky: the failpoint no longer fires, but the reader does not
  // re-trust the failed tier on its own.
  Statistics stats;
  EXPECT_EQ(reader.RangeQuery(queries_[1], theta, &stats),
            testutil::BruteForce(store_, queries_[1], theta));
  EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 1u);
  EXPECT_TRUE(reader.degraded());

  // The operator lever re-runs recovery and re-arms the fast tier.
  ASSERT_TRUE(reader.RestoreSnapshotTier().ok());
  EXPECT_FALSE(reader.degraded());
  EXPECT_TRUE(reader.snapshot_open());
  Statistics healthy;
  for (const RawDistance t : Thetas()) {
    EXPECT_EQ(reader.RangeQuery(queries_[2], t, &healthy),
              testutil::BruteForce(store_, queries_[2], t));
  }
  EXPECT_EQ(healthy.Get(Ticker::kDegradedReads), 0u);
}

TEST_F(ResilientReaderTest, ExpiredDeadlineStopsEitherTier) {
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  QueryControl expired(Deadline::AfterMillis(-1.0));
  std::vector<RankingId> out{7};
  Statistics stats;
  const Status status = reader.RangeQuery(
      queries_[0], RawThreshold(0.3, store_.k()), &expired, &out, &stats);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(stats.Get(Ticker::kDeadlineExceeded), 1u);
}

// k-NN takes the range query's tier choice: the snapshot tier runs the
// kernel's list-at-a-time search over the decoded lists, the RAM tier
// scans. Both must equal LinearScanKnn, including a query whose items
// occur in no row (the index cannot fill the heap) and j > n.
TEST_F(ResilientReaderTest, KnnMatchesLinearScanOnEitherTier) {
  WriteSnapshot();
  ResilientReader snapshot_tier(&store_, {dir_, 3});
  ASSERT_TRUE(snapshot_tier.OpenSnapshotTier().ok());
  ResilientReader ram_tier(&store_, {});
  std::vector<PreparedQuery> queries = queries_;
  std::vector<ItemId> absent(store_.k());
  for (uint32_t p = 0; p < store_.k(); ++p) absent[p] = 80000 + p;
  queries.emplace_back(std::move(Ranking::Create(absent)).ValueOrDie());
  queries.emplace_back(store_.Materialize(11));
  Statistics stats;
  for (const size_t j : {size_t{1}, size_t{10}, store_.size() + 3}) {
    for (const PreparedQuery& query : queries) {
      const std::vector<Neighbor> truth = LinearScanKnn(store_, query, j);
      EXPECT_EQ(snapshot_tier.KnnQuery(query, j, &stats), truth) << j;
      EXPECT_EQ(ram_tier.KnnQuery(query, j), truth) << j;
    }
  }
  EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 0u);
  EXPECT_FALSE(snapshot_tier.degraded());

  // The snapshot tier answers a stored row's neighbours from its lists.
  Statistics indexed;
  snapshot_tier.KnnQuery(queries.back(), 10, &indexed);
  EXPECT_LT(indexed.Get(Ticker::kDistanceCalls), store_.size());
}

TEST_F(ResilientReaderTest, KnnSnapshotFaultDegradesStickilyThenRestores) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  {
    FailpointSpec one_shot;
    one_shot.max_fires = 1;
    ScopedFailpoint fault("serve.snapshot.query", one_shot);
    Statistics stats;
    EXPECT_EQ(reader.KnnQuery(queries_[0], 10, &stats),
              LinearScanKnn(store_, queries_[0], 10));
    EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 1u);
    EXPECT_TRUE(reader.degraded());
    EXPECT_FALSE(reader.snapshot_open());
  }
  // Sticky for both query kinds: the RAM tier keeps answering exactly.
  Statistics stats;
  EXPECT_EQ(reader.KnnQuery(queries_[1], 10, &stats),
            LinearScanKnn(store_, queries_[1], 10));
  const RawDistance theta = RawThreshold(0.3, store_.k());
  EXPECT_EQ(reader.RangeQuery(queries_[1], theta, &stats),
            testutil::BruteForce(store_, queries_[1], theta));
  EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 2u);
  EXPECT_TRUE(reader.degraded());

  ASSERT_TRUE(reader.RestoreSnapshotTier().ok());
  Statistics healthy;
  for (const size_t j : {size_t{1}, size_t{10}, store_.size() + 3}) {
    EXPECT_EQ(reader.KnnQuery(queries_[2], j, &healthy),
              LinearScanKnn(store_, queries_[2], j));
  }
  EXPECT_EQ(healthy.Get(Ticker::kDegradedReads), 0u);
}

TEST_F(ResilientReaderTest, KnnDeadlineAndCancelStopEitherTier) {
  WriteSnapshot();
  ResilientReader snapshot_tier(&store_, {dir_, 3});
  ASSERT_TRUE(snapshot_tier.OpenSnapshotTier().ok());
  ResilientReader ram_tier(&store_, {});
  for (ResilientReader* reader : {&snapshot_tier, &ram_tier}) {
    QueryControl expired(Deadline::AfterMillis(-1.0));
    std::vector<Neighbor> out{Neighbor{7, 7}};
    Statistics stats;
    EXPECT_EQ(reader->KnnQuery(queries_[0], 10, &expired, &out, &stats).code(),
              Status::Code::kDeadlineExceeded);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 1u);

    CancelToken token;
    token.Cancel();
    QueryControl cancelled(Deadline::Infinite(), &token);
    out.assign(1, Neighbor{7, 7});
    EXPECT_EQ(reader->KnnQuery(queries_[0], 10, &cancelled, &out).code(),
              Status::Code::kAborted);
    EXPECT_TRUE(out.empty());
  }
}

// ---------------------------------------------------------------------------

TEST(ParallelRunnerDeadlineTest, StatusOverloadMatchesLegacyWhenUnbounded) {
  const RankingStore store = testutil::MakeClusteredStore(10, 1200, 141);
  const ShardedStore sharded(store, 3, ShardingStrategy::kHashById);
  ParallelRunner runner(&sharded);
  const auto queries = testutil::MakeQueries(store, 5, 142);
  const RawDistance theta = RawThreshold(0.3, store.k());
  for (const PreparedQuery& query : queries) {
    const auto expected = runner.RangeQuery(Algorithm::kFV, query, theta);
    QueryControl control;  // infinite deadline
    std::vector<RankingId> out;
    ASSERT_TRUE(runner
                    .RangeQuery(Algorithm::kFV, 0, query, theta, &control,
                                &out)
                    .ok());
    EXPECT_EQ(out, expected);
    EXPECT_EQ(expected, testutil::BruteForce(store, query, theta));
  }
}

TEST(ParallelRunnerDeadlineTest, ExpiredDeadlineAndCancelStopTheFanOut) {
  const RankingStore store = testutil::MakeClusteredStore(10, 1200, 151);
  const ShardedStore sharded(store, 3, ShardingStrategy::kHashById);
  ParallelRunner runner(&sharded);
  const auto queries = testutil::MakeQueries(store, 2, 152);
  const RawDistance theta = RawThreshold(0.3, store.k());

  QueryControl expired(Deadline::AfterMillis(-1.0));
  std::vector<RankingId> out{3};
  Statistics stats;
  EXPECT_EQ(runner
                .RangeQuery(Algorithm::kFV, 0, queries[0], theta, &expired,
                            &out, &stats)
                .code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(stats.Get(Ticker::kDeadlineExceeded), 1u);

  CancelToken token;
  token.Cancel();
  QueryControl cancelled(Deadline::Infinite(), &token);
  EXPECT_EQ(runner
                .RangeQuery(Algorithm::kFV, 0, queries[1], theta, &cancelled,
                            &out)
                .code(),
            Status::Code::kAborted);
  EXPECT_TRUE(out.empty());

  // The runner is not poisoned by a stopped query.
  EXPECT_EQ(runner.RangeQuery(Algorithm::kFV, queries[0], theta),
            testutil::BruteForce(store, queries[0], theta));
}

}  // namespace
}  // namespace topk
