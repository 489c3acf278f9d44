// snapshot_nyt: a static 200k NYT-like collection written by
// SnapshotManager as one crash-safe generation and served by
// ResilientReader from the mmap tier (compressed decode, then
// filter/validate). The RAM-only ResilientReader -- the degraded tier,
// which validates every row -- answers each range query too. One
// thread; theta cycles over {0.05, 0.1, 0.2}. A tenth of the ops are
// k-NN (j=10) served by LinearScanKnn over the snapshot's mmap'd rows,
// since ResilientReader has no k-NN entry point.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "invidx/plain_inverted_index.h"
#include "layers.h"
#include "metric/knn.h"
#include "serve/resilient_reader.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kK = 10;
constexpr size_t kJ = 10;
constexpr double kThetas[] = {0.05, 0.1, 0.2};
constexpr size_t kStream = 2000;  // distinct ops; every 10th is k-NN
constexpr size_t kRound = 100;   // ops per round; rounds cycle the stream
constexpr size_t kRangeBlock = 270;  // latencies per percentile block
constexpr size_t kKnnBlock = 30;
constexpr int kSetups = 5;

struct Op {
  bool knn = false;
  uint32_t query = 0;
  uint64_t theta_raw = 0;
};

/// One setup's serving objects over one snapshot directory.
struct Tiers {
  std::unique_ptr<topk::ResilientReader> healthy;
  std::unique_ptr<topk::ResilientReader> degraded;  // RAM-only
  std::optional<topk::storage::OpenedSnapshot> mapped;  // k-NN path
  double write_s = 0;
  double open_ms = 0;
  double file_bytes = 0;
};

Tiers Setup(const topk::RankingStore& rows, const std::string& dir) {
  std::filesystem::remove_all(dir);
  Tiers tiers;
  const int64_t t0 = NowNs();
  const topk::PlainInvertedIndex plain = topk::PlainInvertedIndex::Build(rows);
  const auto arena =
      topk::storage::CompressedPostingArena<topk::RankingId>::FromArena(
          plain.arena());
  topk::storage::SnapshotManager manager(dir);
  const topk::Status written = manager.WriteSnapshot(rows, arena);
  if (!written.ok()) {
    throw std::runtime_error("snapshot write: " + written.ToString());
  }
  const int64_t t1 = NowNs();
  tiers.healthy = std::make_unique<topk::ResilientReader>(
      &rows, topk::ResilientReaderOptions{dir, 3});
  const topk::Status opened = tiers.healthy->OpenSnapshotTier();
  if (!opened.ok()) {
    throw std::runtime_error("snapshot open: " + opened.ToString());
  }
  const int64_t t2 = NowNs();
  tiers.degraded = std::make_unique<topk::ResilientReader>(
      &rows, topk::ResilientReaderOptions{"", 3});
  auto mapped = manager.OpenNewestValid();
  if (!mapped.ok()) {
    throw std::runtime_error("snapshot map: " + mapped.status().ToString());
  }
  tiers.mapped.emplace(std::move(mapped).ValueOrDie());
  tiers.write_s = static_cast<double>(t1 - t0) / 1e9;
  tiers.open_ms = static_cast<double>(t2 - t1) / 1e6;
  tiers.file_bytes = static_cast<double>(
      std::filesystem::file_size(manager.GenerationPath(1)));
  return tiers;
}

}  // namespace

Report RunSnapshotNyt(const Args& args) {
  Report report;
  const uint32_t n = args.smoke ? 3000 : 200000;
  // The collection is fixed, as the paper's datasets are; the seed draws
  // the queries.
  const topk::RankingStore rows = topk::Generate(topk::NytLikeOptions(n, kK));
  topk::WorkloadOptions wopts;
  wopts.num_queries = kStream;
  wopts.seed = SubSeed(args.seed, 2);
  const std::vector<topk::PreparedQuery> queries =
      topk::MakeWorkload(rows, wopts);
  std::vector<Op> ops(kStream);
  Fingerprint fp;
  fp.AddRows(rows);
  for (size_t i = 0; i < kStream; ++i) {
    ops[i].query = static_cast<uint32_t>(i);
    ops[i].knn = i % 10 == 9;
    ops[i].theta_raw = topk::RawThreshold(kThetas[i % 3], kK);
    fp.AddItems(queries[i].view().items());
    fp.Add(ops[i].knn ? kJ : ops[i].theta_raw);
  }
  std::printf("fingerprint %s\n", fp.Hex().c_str());
  if (args.fingerprint_only) return report;

  // The oracle's answers, computed before the run so every answer is
  // checked as it arrives. Range answers run to thousands of ids, so
  // only their digests are kept.
  Rows table;
  AppendRows(rows, &table);
  std::vector<IdDigest> want_range(kStream);
  std::vector<std::vector<Near>> want_knn(kStream);
  for (size_t i = 0; i < kStream; ++i) {
    const Items q = queries[i].view().items();
    if (ops[i].knn) {
      want_knn[i] = BruteKnn(table, q, kJ);
    } else {
      want_range[i] = DigestAscending(BruteRange(table, q, ops[i].theta_raw));
    }
  }

  const std::string dir = args.work_dir + "/snapshot_nyt";
  std::vector<double> setup_s, write_s, open_ms;
  Tiers tiers;
  for (int i = 0; i < kSetups; ++i) {
    tiers = Tiers{};  // drop the previous setup first
    const int64_t t0 = NowNs();
    tiers = Setup(rows, dir + "/gen" + std::to_string(i % 2));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    write_s.push_back(tiers.write_s);
    open_ms.push_back(tiers.open_ms);
  }
  const topk::RankingStore& mapped_rows = tiers.mapped->snapshot.store();

  Tracer tracer(args.trace);
  BlockPercentiles range_ms(kRangeBlock), degraded_ms(kRangeBlock),
      knn_ms(kKnnBlock);
  std::vector<Sampled> sample;
  std::vector<topk::RankingId> got, got_degraded;
  auto round = [&](size_t r) {
    const bool timed = r > 0;
    for (size_t i = (r % (kStream / kRound)) * kRound, end = i + kRound;
         i < end; ++i) {
      const Op& op = ops[i];
      const topk::PreparedQuery& q = queries[op.query];
      const uint64_t request = r * kRound + i % kRound;
      ++report.attempted;
      if (op.knn) {
        const int64_t t0 = NowNs();
        const std::vector<topk::Neighbor> nn =
            topk::LinearScanKnn(mapped_rows, q, kJ);
        const int64_t t1 = NowNs();
        const int64_t span =
            tracer.Add("serve.LinearScanKnn.mmap", t0, t1, -1, request);
        if (timed) knn_ms.Add(static_cast<double>(t1 - t0) / 1e6);
        if (r == 1) sample.push_back(Sampled{&q, true, 0, kJ, span, request});
        const std::string bad = CompareExact(ToNear(nn), want_knn[i]);
        if (!bad.empty()) report.Fail("snapshot k-NN op " + std::to_string(i) + ": " + bad);
        continue;
      }
      const int64_t t0 = NowNs();
      const topk::Status s1 =
          tiers.healthy->RangeQuery(q, op.theta_raw, nullptr, &got);
      const int64_t t1 = NowNs();
      const topk::Status s2 =
          tiers.degraded->RangeQuery(q, op.theta_raw, nullptr, &got_degraded);
      const int64_t t2 = NowNs();
      const int64_t span =
          tracer.Add("serve.ResilientReader.RangeQuery", t0, t1, -1, request);
      tracer.Add("serve.ResilientReader.RangeQuery.ram", t1, t2, -1, request);
      if (!s1.ok() || !s2.ok()) {
        ++report.failed;
        continue;
      }
      if (timed) {
        range_ms.Add(static_cast<double>(t1 - t0) / 1e6);
        degraded_ms.Add(static_cast<double>(t2 - t1) / 1e6);
      }
      if (r == 1) {
        sample.push_back(Sampled{&q, false, op.theta_raw, 0, span, request});
      }
      if (!(DigestAscending(got) == want_range[i])) {
        report.Fail("snapshot range op " + std::to_string(i) +
                    ": mmap tier answer differs from the oracle's");
      } else if (!(DigestAscending(got_degraded) == want_range[i])) {
        report.Fail("snapshot range op " + std::to_string(i) +
                    ": RAM tier answer differs from the oracle's");
      }
    }
  };
  const std::vector<double> round_s = RunRounds(args.seconds, round);
  const double peak_rss = PeakRssMb();
  // ResilientReader falls back to the RAM tier silently and for good,
  // answering OK; the timed figures are the mmap tier's only if it is
  // still the one serving.
  if (!tiers.healthy->snapshot_open() || tiers.healthy->degraded()) {
    report.Fail("the healthy reader fell back to the RAM tier");
  }

  report.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", MedianRate(round_s, kRound), "1/s"},
      {"range_p50_ms", range_ms.Get(0.5), "ms"},
      {"range_p90_ms", range_ms.Get(0.9), "ms"},
      {"knn_p50_ms", knn_ms.Get(0.5), "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"degraded_range_p50_ms", degraded_ms.Get(0.5), "ms"},
      {"disk_bytes_per_row", tiers.file_bytes / static_cast<double>(n), "B"},
  };

  if (args.trace) {
    LayerValues values;
    topk::EngineSuite suite(&rows);
    ReplayReadLayers(rows, &suite, tiers.mapped->snapshot.index(), sample,
                     &tracer, &values);
    // The healthy tier's own work: the union over the compressed
    // index (decoding each list), then validation.
    const ChildTimes children = ChildMicros(tracer);
    std::vector<double> self_us;
    for (const Sampled& s : sample) {
      if (s.knn) continue;
      self_us.push_back(
          SelfMicros(tracer, children, s.facade_span,
                     {"storage.FilterPhase", "kernel.FootruleValidator"}));
    }
    values["serve.self_us_per_request"] = Median(self_us);
    values["storage.snapshot_write_s"] = Median(write_s);
    values["storage.snapshot_open_ms"] = Median(open_ms);
    values["storage.bytes_per_posting"] =
        tiers.file_bytes / static_cast<double>(size_t{n} * kK);
    report.per_layer = LayerReport(values);
    tracer.Write(args.work_dir + "/traces/snapshot_nyt.jsonl");
  }
  tiers = Tiers{};
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench
