// live_nyt: writes beside reads. A MutableStore seeded with 200k
// NYT-like rows is served through LiveFrontend; two closed-loop clients
// consume one seeded op stream (70% range at theta in {0.05, 0.1, 0.2},
// 10% k-NN with j=10, 15% insert of fresh rows from the same generator,
// 5% delete). A merge worker seals and merges at a fixed delta
// threshold, and every merge emits a crash-safe snapshot generation
// (fsync on) into a scratch directory. Writes sit in the clients' own
// stream: an open-loop writer thread beside looping readers waits
// seconds per insert on the store mutex. Every write invalidates the
// result cache, so the cache is effectively bypassed.
//
// Answers are checked after the run against the oracle under the
// linearizability the store promises: each op records when its call
// began and ended, so a row counts as alive for the whole call when its
// insert ended before the call began and its delete had not begun
// before the call ended. After quiescing and MergeNow() the store must
// match the oracle exactly over the rows known to be alive. The store
// records merge and emission failures instead of throwing them, so the
// run also fails when a merge or an emission failed or was retried, the
// merge circuit opened, or no generation was emitted during timed
// rounds that inserted twice the merge threshold.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/generator.h"
#include "data/workload.h"
#include "layers.h"
#include "serve/live_frontend.h"
#include "storage/compressed_index.h"
#include "storage/snapshot_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kK = 10;
constexpr size_t kJ = 10;
constexpr size_t kTopM = 64;  // oracle k-NN candidates kept per query
constexpr double kThetas[] = {0.05, 0.1, 0.2};
constexpr int kSetups = 5;
constexpr int kClients = 2;
/// Delta size at which the merge worker seals and merges; the mutate
/// replay of a traced run merges a delta this size too.
constexpr size_t kMergeThreshold = 300;
/// Think time between a client's ops. Longer than a mutex waiter takes
/// to wake, so the store mutex passes between the clients the same way
/// in every run instead of flipping between a waiter that wakes in time
/// and one that loses to the releasing client.
constexpr int64_t kThinkNs = 100000;

enum class Kind : uint8_t { kRange, kKnn, kInsert, kDelete };

struct Sizes {
  uint32_t n;
  uint32_t pool;  // fresh rows the inserts cycle through
  size_t range, knn, insert, del;  // ops of each kind in the op stream
  size_t round;  // ops per round; rounds walk the stream cyclically
  size_t stream() const { return range + knn + insert + del; }
};

/// One executed op: when its call began and ended, and what it returned.
/// Range answers run to thousands of ids, so a run keeps only their
/// digest.
struct Record {
  uint64_t op = 0;  // index into the endless op stream
  int64_t t0 = 0, t1 = 0;
  IdDigest ids;                      // range answer
  std::vector<Near> nn;              // k-NN answer
  topk::RankingId inserted = 0;      // insert: the assigned id
  bool ok = true;                    // delete: Delete() returned true
};

struct Live {
  std::unique_ptr<topk::LiveFrontend> frontend;
  std::unique_ptr<topk::MutableStore> store;
  std::string dir;
  /// The frontend must outlive the store's last mutation (its listener
  /// holds a back-pointer), so the store goes first.
  void Reset() {
    store.reset();
    frontend.reset();
  }
};

}  // namespace

Report RunLiveNyt(const Args& args) {
  Report report;
  const Sizes sizes = args.smoke ? Sizes{3000, 200, 70, 10, 15, 5, 50}
                                 : Sizes{200000, 2000, 1400, 200, 300, 100, 500};
  const size_t round_ops = sizes.round;
  const size_t stream_ops = sizes.stream();
  // The collection is fixed, as the paper's datasets are; the seed draws
  // the op stream, the inserted rows and the delete targets.
  const topk::RankingStore rows0 =
      topk::Generate(topk::NytLikeOptions(sizes.n, kK));
  const topk::RankingStore pool = topk::Generate(
      topk::NytLikeOptions(sizes.pool, kK, SubSeed(args.seed, 5)));
  topk::WorkloadOptions wopts;
  wopts.num_queries = sizes.range;
  wopts.seed = SubSeed(args.seed, 2);
  const std::vector<topk::PreparedQuery> range_queries =
      topk::MakeWorkload(rows0, wopts);
  wopts.num_queries = sizes.knn;
  wopts.seed = SubSeed(args.seed, 3);
  const std::vector<topk::PreparedQuery> knn_queries =
      topk::MakeWorkload(rows0, wopts);

  // The op stream: exact op counts in a seeded order; `param` numbers
  // the ops of each kind within the stream.
  std::vector<Kind> kinds;
  kinds.insert(kinds.end(), sizes.range, Kind::kRange);
  kinds.insert(kinds.end(), sizes.knn, Kind::kKnn);
  kinds.insert(kinds.end(), sizes.insert, Kind::kInsert);
  kinds.insert(kinds.end(), sizes.del, Kind::kDelete);
  topk::Rng rng(SubSeed(args.seed, 4));
  for (size_t i = kinds.size() - 1; i > 0; --i) {
    std::swap(kinds[i], kinds[rng.Below(i + 1)]);
  }
  std::vector<uint32_t> param(stream_ops);
  {
    size_t seen[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < stream_ops; ++i) {
      param[i] = static_cast<uint32_t>(seen[static_cast<int>(kinds[i])]++);
    }
  }
  // Delete targets: a seeded permutation of the seed rows, consumed in
  // order, so every delete hits a distinct row that is still alive.
  std::vector<uint32_t> victims(sizes.n);
  for (uint32_t i = 0; i < sizes.n; ++i) victims[i] = i;
  for (size_t i = victims.size() - 1; i > 0; --i) {
    std::swap(victims[i], victims[rng.Below(i + 1)]);
  }
  auto theta_of = [&](uint32_t p) { return topk::RawThreshold(kThetas[p % 3], kK); };
  // Op g is stream position g % stream_ops of pass g / stream_ops.
  auto pool_row = [&](uint64_t pass, uint32_t p) {
    return static_cast<uint32_t>((pass * sizes.insert + p) % sizes.pool);
  };
  auto victim = [&](uint64_t pass, uint32_t p) {
    const uint64_t at = pass * sizes.del + p;
    if (at >= victims.size()) throw std::runtime_error("out of delete targets");
    return victims[at];
  };

  Fingerprint fp;
  fp.AddRows(rows0);
  fp.AddRows(pool);
  for (const auto& q : range_queries) fp.AddItems(q.view().items());
  for (const auto& q : knn_queries) fp.AddItems(q.view().items());
  for (const Kind kind : kinds) fp.Add(static_cast<uint64_t>(kind));
  for (size_t i = 0; i < std::min<size_t>(victims.size(), 4096); ++i) {
    fp.Add(victims[i]);
  }
  std::printf("fingerprint %s\n", fp.Hex().c_str());
  if (args.fingerprint_only) return report;

  const std::string base = args.work_dir + "/live_nyt";
  std::vector<double> setup_s;
  Live live;
  for (int i = 0; i < kSetups; ++i) {
    live.Reset();
    live.dir = base + "/setup" + std::to_string(i % 2);
    std::filesystem::remove_all(live.dir);
    topk::MutableStoreOptions options;
    options.merge_threshold = kMergeThreshold;
    options.snapshot_dir = live.dir;
    const int64_t t0 = NowNs();
    live.store = std::make_unique<topk::MutableStore>(rows0, options);
    live.frontend = std::make_unique<topk::LiveFrontend>(live.store.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Closed-loop clients over one dispenser. The dispenser hands out ops
  // in stream order and stops only at a round boundary, so every run
  // attempts whole rounds.
  std::mutex dispenser_mu;
  uint64_t next_op = 0;
  bool stopped = false;
  int64_t timed_start = 0;
  uint64_t generation_at_start = 0;  // newest emitted before the timed rounds
  auto newest_generation = [&] {
    const std::vector<uint64_t> g =
        topk::storage::SnapshotManager(live.dir).ListGenerations();
    return g.empty() ? uint64_t{0} : g.back();
  };
  auto take = [&](uint64_t* op) {
    std::lock_guard<std::mutex> lock(dispenser_mu);
    if (stopped) return false;
    if (next_op % round_ops == 0 && next_op > 0) {
      // The next round must not run out of delete targets.
      const bool targets_left =
          ((next_op + round_ops) / stream_ops + 1) * sizes.del <=
          victims.size();
      if (next_op == round_ops) {
        generation_at_start = newest_generation();
        timed_start = NowNs();  // round 0 is the warm-up
      } else if (!targets_left ||
                 static_cast<double>(NowNs() - timed_start) / 1e9 >=
                     args.seconds) {
        stopped = true;
        return false;
      }
    }
    *op = next_op++;
    return true;
  };

  struct Client {
    std::vector<Record> records;
    std::vector<double> delta_rows, tombstones;
    topk::Statistics stats;
    Tracer tracer{false};
    std::vector<int64_t> spans;  // facade span per record (traced runs)
  };
  std::vector<Client> clients(kClients);
  for (Client& c : clients) c.tracer = Tracer(args.trace);
  auto client_loop = [&](Client* c, size_t index) {
    topk::Statistics* stats = args.trace ? &c->stats : nullptr;
    std::vector<topk::RankingId> ids;
    CpuRotation rotation(index);  // the clients start on different CPUs
    uint64_t op = 0;
    while (take(&op)) {
      rotation.Tick();
      const uint64_t pass = op / stream_ops;
      const size_t pos = op % stream_ops;
      const uint32_t p = param[pos];
      if (args.trace && op % 16 == 0) {
        c->delta_rows.push_back(static_cast<double>(live.store->delta_size()));
        c->tombstones.push_back(
            static_cast<double>(live.store->tombstone_count()));
      }
      Record rec;
      rec.op = op;
      const char* name = "";
      rec.t0 = NowNs();
      switch (kinds[pos]) {
        case Kind::kRange: {
          const topk::Status s = live.frontend->ServeRange(
              range_queries[p], theta_of(p), nullptr, &ids, stats);
          rec.ok = s.ok();
          name = "serve.LiveFrontend.ServeRange";
          break;
        }
        case Kind::kKnn: {
          std::vector<topk::Neighbor> nn;
          const topk::Status s =
              live.frontend->ServeKnn(knn_queries[p], kJ, nullptr, &nn, stats);
          rec.ok = s.ok();
          rec.nn = ToNear(nn);
          name = "serve.LiveFrontend.ServeKnn";
          break;
        }
        case Kind::kInsert:
          rec.inserted =
              live.store->Insert(pool.view(pool_row(pass, p)));
          name = "mutate.MutableStore.Insert";
          break;
        case Kind::kDelete:
          rec.ok = live.store->Delete(victim(pass, p));
          name = "mutate.MutableStore.Delete";
          break;
      }
      rec.t1 = NowNs();
      if (kinds[pos] == Kind::kRange) rec.ids = DigestAscending(ids);
      c->spans.push_back(c->tracer.Add(name, rec.t0, rec.t1, -1, op));
      c->records.push_back(std::move(rec));
      // Client think time, spun rather than slept for a steady length.
      const int64_t resume = NowNs() + kThinkNs;
      while (NowNs() < resume) {
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back(client_loop, &clients[i], i);
  }
  for (std::thread& t : threads) t.join();
  const double peak_rss = PeakRssMb();
  const uint64_t ops_total = next_op;
  report.attempted = ops_total;
  auto check_health = [&](const std::string& when) {
    const topk::Status merged = live.store->last_merge_status();
    const topk::Status emitted = live.store->last_snapshot_status();
    if (!merged.ok()) {
      report.Fail("merge failed " + when + ": " + merged.ToString());
    } else if (!emitted.ok()) {
      report.Fail("snapshot emission failed " + when + ": " + emitted.ToString());
    } else if (live.store->merge_circuit_open()) {
      report.Fail("merge circuit open " + when);
    } else if (live.store->merge_retries() > 0) {
      report.Fail("merge or emission retried " + when);
    }
  };
  check_health("during the run");
  const uint64_t newest_after_run = newest_generation();

  std::vector<const Record*> records;
  for (Client& c : clients) {
    for (const Record& r : c.records) records.push_back(&r);
  }
  std::sort(records.begin(), records.end(),
            [](const Record* a, const Record* b) { return a->op < b->op; });
  uint64_t writes_ok = 0, timed_inserts = 0;
  for (const Record* r : records) {
    const Kind kind = kinds[r->op % stream_ops];
    if (!r->ok) {
      ++report.failed;
      if (kind == Kind::kDelete) report.Fail("Delete of a live row returned false");
    } else if (kind == Kind::kInsert || kind == Kind::kDelete) {
      ++writes_ok;
      if (kind == Kind::kInsert && r->op >= round_ops) ++timed_inserts;
    }
  }
  // Twice the threshold of inserts in the timed rounds crosses it at
  // least once, with a threshold's worth of inserts to spare for that
  // merge to finish; a 30 s run makes about three times as many. A run
  // too short for that is not held to it.
  if (timed_inserts >= 2 * kMergeThreshold &&
      newest_after_run <= generation_at_start) {
    report.Fail("no snapshot generation was emitted during the timed rounds");
  }
  // Every successful write bumps the generation once, and so does every
  // merge swap.
  const uint64_t merges = live.store->generation() - 1 - writes_ok;

  // The write log: which rows existed when.
  struct CallWindow {  // when a write call began and ended
    int64_t t0, t1;
  };
  std::map<uint32_t, CallWindow> deleted;                     // seed row -> delete call
  std::vector<std::vector<std::pair<topk::RankingId, CallWindow>>> inserted(
      sizes.pool);                                       // pool row -> inserts
  std::map<topk::RankingId, uint32_t> content;           // inserted id -> pool row
  for (const Record* r : records) {
    const uint64_t pass = r->op / stream_ops;
    const uint32_t p = param[r->op % stream_ops];
    const Kind kind = kinds[r->op % stream_ops];
    if (kind == Kind::kDelete) {
      deleted[victim(pass, p)] = CallWindow{r->t0, r->t1};
    } else if (kind == Kind::kInsert) {
      const uint32_t row = pool_row(pass, p);
      if (r->inserted < sizes.n || !content.emplace(r->inserted, row).second) {
        report.Fail("Insert returned a reused id");
      }
      inserted[row].push_back({r->inserted, CallWindow{r->t0, r->t1}});
    }
  }

  // Oracle over every row that ever existed: keys < n are seed rows,
  // key n + p is pool row p.
  Rows all;
  AppendRows(rows0, &all);
  AppendRows(pool, &all);
  std::vector<std::vector<uint32_t>> within(sizes.range);
  for (size_t p = 0; p < sizes.range; ++p) {
    within[p] = BruteRange(all, range_queries[p].view().items(), theta_of(p));
  }
  std::vector<std::vector<Near>> nearest(sizes.knn);
  for (size_t p = 0; p < sizes.knn; ++p) {
    nearest[p] = BruteKnn(all, knn_queries[p].view().items(), kTopM);
  }
  auto content_key = [&](topk::RankingId id) -> int64_t {
    if (id < sizes.n) return id;
    const auto it = content.find(id);
    return it == content.end() ? -1 : sizes.n + it->second;
  };
  // Ids of `key` alive for all of [t0, t1] (must) or visible at some
  // point of it (may).
  auto expand = [&](uint32_t key, int64_t t0, int64_t t1, bool must,
                    std::vector<topk::RankingId>* out) {
    if (key < sizes.n) {
      const auto it = deleted.find(key);
      const bool gone = it != deleted.end() &&
                        (must ? it->second.t0 < t1 : it->second.t1 < t0);
      if (!gone) out->push_back(key);
      return;
    }
    for (const auto& [id, span] : inserted[key - sizes.n]) {
      if (must ? span.t1 < t0 : span.t0 < t1) out->push_back(id);
    }
  };

  std::vector<topk::RankingId> must, may;
  for (const Record* r : records) {
    if (!r->ok || !report.correct) continue;
    const Kind kind = kinds[r->op % stream_ops];
    const uint32_t p = param[r->op % stream_ops];
    if (kind == Kind::kRange) {
      must.clear();
      may.clear();
      for (const uint32_t key : within[p]) {
        expand(key, r->t0, r->t1, true, &must);
        expand(key, r->t0, r->t1, false, &may);
      }
      std::sort(must.begin(), must.end());
      std::sort(may.begin(), may.end());
      const std::string bad = CheckRangeBetween(r->ids, must, may);
      if (!bad.empty()) report.Fail("live range op " + std::to_string(r->op) + ": " + bad);
    } else if (kind == Kind::kKnn) {
      const Items q = knn_queries[p].view().items();
      const QueryTable table(q, all.domain);
      std::vector<uint64_t> floor;
      for (const Near& cand : nearest[p]) {
        must.clear();
        expand(cand.id, r->t0, r->t1, true, &must);
        for (size_t i = 0; i < must.size() && floor.size() < kJ; ++i) {
          floor.push_back(cand.distance);
        }
      }
      if (floor.size() < kJ) {  // the top-M ran dry: scan every row
        floor.clear();
        const std::vector<Near> every = BruteKnn(all, q, all.size());
        for (const Near& cand : every) {
          must.clear();
          expand(cand.id, r->t0, r->t1, true, &must);
          for (size_t i = 0; i < must.size() && floor.size() < kJ; ++i) {
            floor.push_back(cand.distance);
          }
        }
      }
      auto exact = [&](uint32_t id) -> uint64_t {
        const int64_t key = content_key(id);
        if (key < 0) return UINT64_MAX;
        may.clear();
        expand(static_cast<uint32_t>(key), r->t0, r->t1, false, &may);
        if (std::find(may.begin(), may.end(), id) == may.end()) {
          return UINT64_MAX;
        }
        return table.Distance(all.row(static_cast<size_t>(key)));
      };
      const std::string bad = CheckKnnBetween(r->nn, kJ, floor, exact);
      if (!bad.empty()) report.Fail("live k-NN op " + std::to_string(r->op) + ": " + bad);
    }
  }

  // Quiesce, merge, then exact equality over the rows known alive.
  live.store->MergeNow();
  check_health("by the quiescing MergeNow()");
  const int64_t after = NowNs();
  // A fixed sample of the distinct queries: every 7th range and every
  // 4th k-NN query.
  for (size_t p = 0; p < sizes.range && report.correct; p += 7) {
    std::vector<topk::RankingId> want;
    for (const uint32_t key : within[p]) expand(key, after, after, true, &want);
    std::sort(want.begin(), want.end());
    const std::string bad = CompareExact(
        live.frontend->ServeRange(range_queries[p], theta_of(p)), want);
    if (!bad.empty()) report.Fail("quiesced range query " + std::to_string(p) + ": " + bad);
  }
  for (size_t p = 0; p < sizes.knn && report.correct; p += 4) {
    std::vector<Near> want;
    std::vector<topk::RankingId> ids;
    auto collect = [&](const std::vector<Near>& from) {
      want.clear();
      for (const Near& cand : from) {
        ids.clear();
        expand(cand.id, after, after, true, &ids);
        for (const topk::RankingId id : ids) want.push_back(Near{cand.distance, id});
      }
      std::sort(want.begin(), want.end());
    };
    collect(nearest[p]);
    // Exact only when the j-th alive distance is below the last kept
    // candidate's, so no row outside the top-M can tie or beat it.
    if (want.size() < kJ || want[kJ - 1].distance >= nearest[p].back().distance) {
      collect(BruteKnn(all, knn_queries[p].view().items(), all.size()));
    }
    want.resize(std::min(want.size(), kJ));
    const std::string bad = CompareExact(
        ToNear(live.frontend->ServeKnn(knn_queries[p], kJ)), want);
    if (!bad.empty()) report.Fail("quiesced k-NN query " + std::to_string(p) + ": " + bad);
  }

  const topk::storage::SnapshotManager manager(live.dir);
  const std::vector<uint64_t> generations = manager.ListGenerations();
  double disk_bytes_per_row = 0;
  double emitted_bytes = 0;
  if (!generations.empty()) {
    double retained = 0;
    for (const uint64_t g : generations) {
      retained += static_cast<double>(
          std::filesystem::file_size(manager.GenerationPath(g)));
    }
    emitted_bytes = retained / static_cast<double>(generations.size()) *
                    static_cast<double>(generations.back());
    disk_bytes_per_row =
        static_cast<double>(std::filesystem::file_size(
            manager.GenerationPath(generations.back()))) /
        static_cast<double>(live.store->live_size());
  }

  // Each timed round is one block: its percentiles and its ops per
  // second (first call start to last call end); report block medians.
  const size_t rounds_total = ops_total / round_ops;
  std::vector<std::vector<double>> lat(rounds_total * 3);
  std::vector<int64_t> first(rounds_total, INT64_MAX), last(rounds_total, 0);
  for (const Record* r : records) {
    const size_t round = r->op / round_ops;
    const Kind kind = kinds[r->op % stream_ops];
    const size_t series = kind == Kind::kRange ? 0 : kind == Kind::kKnn ? 1 : 2;
    lat[round * 3 + series].push_back(static_cast<double>(r->t1 - r->t0) / 1e6);
    first[round] = std::min(first[round], r->t0);
    last[round] = std::max(last[round], r->t1);
  }
  std::vector<double> range_p50, range_p90, knn_p50, write_p50, rates;
  for (size_t round = 1; round < rounds_total; ++round) {
    range_p50.push_back(Percentile(lat[round * 3], 0.5));
    range_p90.push_back(Percentile(lat[round * 3], 0.9));
    knn_p50.push_back(Percentile(lat[round * 3 + 1], 0.5));
    write_p50.push_back(Percentile(lat[round * 3 + 2], 0.5));
    rates.push_back(static_cast<double>(round_ops) /
                    (static_cast<double>(last[round] - first[round]) / 1e9));
  }

  report.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", Median(rates), "1/s"},
      {"range_p50_ms", Median(range_p50), "ms"},
      {"range_p90_ms", Median(range_p90), "ms"},
      {"knn_p50_ms", Median(knn_p50), "ms"},
      {"write_p50_ms", Median(write_p50), "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"disk_bytes_per_row", disk_bytes_per_row, "B"},
  };

  if (args.trace) {
    LayerValues values;
    Tracer tracer(true);
    std::vector<Sampled> sample;
    std::vector<double> delta_rows, tombstones;
    double contended_us = 0;
    for (Client& c : clients) {
      const int64_t base_id = static_cast<int64_t>(tracer.spans().size());
      tracer.Absorb(c.tracer);
      delta_rows.insert(delta_rows.end(), c.delta_rows.begin(), c.delta_rows.end());
      tombstones.insert(tombstones.end(), c.tombstones.begin(), c.tombstones.end());
      for (size_t i = 0; i < c.records.size(); ++i) {
        const Record& r = c.records[i];
        const Kind kind = kinds[r.op % stream_ops];
        if (r.op / round_ops != 1 || (kind != Kind::kRange && kind != Kind::kKnn)) {
          continue;
        }
        const uint32_t p = param[r.op % stream_ops];
        Sampled s;
        s.knn = kind == Kind::kKnn;
        s.query = s.knn ? &knn_queries[p] : &range_queries[p];
        s.theta_raw = s.knn ? 0 : theta_of(p);
        s.j = s.knn ? kJ : 0;
        s.facade_span = base_id + c.spans[i];
        s.request = r.op;
        sample.push_back(s);
        contended_us += static_cast<double>(r.t1 - r.t0) / 1e3;
      }
    }
    topk::Statistics stats;
    for (const Client& c : clients) stats.MergeFrom(c.stats);
    const double hits = static_cast<double>(stats.Get(topk::Ticker::kResultCacheHits));
    const double misses =
        static_cast<double>(stats.Get(topk::Ticker::kResultCacheMisses));
    values["serve.result_cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    values["mutate.merges"] = static_cast<double>(merges);
    values["mutate.delta_rows_mean"] = Mean(delta_rows);
    values["mutate.tombstones_mean"] = Mean(tombstones);
    values["storage.generations_emitted"] =
        generations.empty() ? 0 : static_cast<double>(generations.back());
    values["storage.emitted_bytes_per_inserted_byte"] =
        emitted_bytes / static_cast<double>(content.size() * kK * sizeof(uint32_t));

    // Uncontended replays on the quiesced store: fresh inserts from the
    // pool, deletes of seed rows not yet deleted.
    std::vector<Items> inserts, fill;
    std::vector<uint32_t> deletes;
    const uint64_t unused_pass = ops_total / stream_ops + 1;
    for (uint32_t i = 0; i < 20; ++i) {
      inserts.push_back(pool.view(i % sizes.pool).items());
      deletes.push_back(victim(unused_pass, i % sizes.del));
    }
    std::sort(deletes.begin(), deletes.end());
    deletes.erase(std::unique(deletes.begin(), deletes.end()), deletes.end());
    for (uint32_t i = 0; i < sizes.pool; ++i) fill.push_back(pool.view(i).items());
    ReplayMutateLayer(live.store.get(), sample, inserts, deletes,
                      kMergeThreshold, fill, &tracer, &values);
    const ChildTimes children = ChildMicros(tracer);
    double replay_us = 0;
    std::vector<double> self_us;
    for (const Sampled& s : sample) {
      const double self = SelfMicros(tracer, children, s.facade_span,
                                     {"mutate.RangeQuery", "mutate.KnnQuery"});
      replay_us += tracer.span(s.facade_span).us() - self;
      self_us.push_back(self);
    }
    values["serve.self_us_per_request"] = Median(self_us);
    values["mutate.wait_share"] = contended_us > 0 ? 1 - replay_us / contended_us : 0;

    topk::EngineSuite suite(&rows0);
    const topk::storage::CompressedInvertedIndex compressed =
        topk::storage::CompressedInvertedIndex::Build(rows0);
    ReplayReadLayers(rows0, &suite, compressed, sample, &tracer, &values);
    report.per_layer = LayerReport(values);
    tracer.Write(args.work_dir + "/traces/live_nyt.jsonl");
  }
  live.Reset();
  std::filesystem::remove_all(base);
  return report;
}

}  // namespace perfbench
