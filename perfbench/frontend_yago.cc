// frontend_yago: a read-only QueryFrontend over the paper-size 25k-row
// Yago-like set, which fits in every cache. One client, one executor,
// one request per ServeBatch. About half the range requests are Zipf
// re-issues of earlier ones (same query, engine and theta), so the
// result cache answers them; the engines rotate over F&V, F&V+Drop,
// Blocked+Prune+Drop and Coarse+Drop at theta in {0.1, 0.2, 0.3}. A small
// share of LinearScan k-NN requests (j=10) takes about half the run.
// Every round starts with InvalidateCaches(), so each round sees the
// same cold-then-warm cache pattern.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/zipf.h"
#include "core/rng.h"
#include "data/generator.h"
#include "data/workload.h"
#include "layers.h"
#include "serve/frontend.h"
#include "storage/compressed_index.h"
#include "workloads.h"

namespace perfbench {
namespace {

using topk::Algorithm;

constexpr uint32_t kK = 10;
constexpr size_t kJ = 10;
constexpr double kThetas[] = {0.1, 0.2, 0.3};
constexpr Algorithm kRangeAlgorithms[] = {
    Algorithm::kFV, Algorithm::kFVDrop, Algorithm::kBlockedPruneDrop,
    Algorithm::kCoarseDrop};
constexpr int kSetups = 3;
/// Share of range requests that re-issue an earlier request. Kept off
/// 1/2 so the range median falls inside the result-cache hits rather
/// than on the edge between hits and misses, where it would jump
/// between the two from seed to seed.
constexpr double kReissueShare = 0.55;
constexpr size_t kKnnBlock = 50;  // k-NN latencies per percentile block

struct Sizes {
  uint32_t n;
  size_t round;  // requests per round
  size_t knn;    // k-NN requests per round
};

struct Request {
  bool knn = false;
  uint32_t query = 0;  // index into the range or the k-NN query list
  Algorithm algorithm = Algorithm::kLinearScan;
  uint64_t theta_raw = 0;
  uint32_t distinct = 0;  // range: which distinct request this repeats
};

}  // namespace

Report RunFrontendYago(const Args& args) {
  Report report;
  const Sizes sizes = args.smoke ? Sizes{2000, 200, 4} : Sizes{25000, 2000, 4};
  // The collection is fixed, as the paper's datasets are; the seed draws
  // the request stream.
  const topk::RankingStore rows =
      topk::Generate(topk::YagoLikeOptions(sizes.n, kK));

  // The request stream: k-NN requests spread evenly, the rest range
  // requests, each either a fresh distinct request or (with probability
  // kReissueShare) a Zipf-ranked re-issue of an earlier one.
  topk::WorkloadOptions wopts;
  wopts.num_queries = sizes.round;
  wopts.seed = SubSeed(args.seed, 2);
  const std::vector<topk::PreparedQuery> range_queries =
      topk::MakeWorkload(rows, wopts);
  wopts.num_queries = sizes.knn;
  wopts.seed = SubSeed(args.seed, 3);
  const std::vector<topk::PreparedQuery> knn_queries =
      topk::MakeWorkload(rows, wopts);
  topk::Rng rng(SubSeed(args.seed, 4));
  const topk::ZipfSampler reissue(1.0, sizes.round);
  std::vector<Request> distinct;
  std::vector<Request> stream;
  const size_t knn_every = sizes.round / sizes.knn;
  for (size_t i = 0; i < sizes.round; ++i) {
    if (i % knn_every == knn_every - 1) {
      Request req;
      req.knn = true;
      req.query = static_cast<uint32_t>(i / knn_every);
      stream.push_back(req);
      continue;
    }
    if (!distinct.empty() && rng.NextDouble() < kReissueShare) {
      stream.push_back(distinct[reissue.SampleBelow(&rng, distinct.size())]);
      continue;
    }
    Request req;
    const size_t d = distinct.size();
    req.query = static_cast<uint32_t>(d);
    req.algorithm = kRangeAlgorithms[d % 4];
    req.theta_raw = topk::RawThreshold(kThetas[d % 3], kK);
    req.distinct = static_cast<uint32_t>(d);
    distinct.push_back(req);
    stream.push_back(req);
  }
  Fingerprint fp;
  fp.AddRows(rows);
  for (const Request& req : stream) {
    const auto& q = req.knn ? knn_queries[req.query] : range_queries[req.query];
    fp.AddItems(q.view().items());
    fp.Add(req.knn ? kJ : req.theta_raw);
    fp.Add(static_cast<uint64_t>(req.algorithm));
  }
  std::printf("fingerprint %s\n", fp.Hex().c_str());
  if (args.fingerprint_only) return report;

  Rows table;
  AppendRows(rows, &table);
  std::vector<std::vector<uint32_t>> want_range(distinct.size());
  for (size_t d = 0; d < distinct.size(); ++d) {
    want_range[d] = BruteRange(table, range_queries[d].view().items(),
                               distinct[d].theta_raw);
  }
  std::vector<std::vector<Near>> want_knn(knn_queries.size());
  for (size_t i = 0; i < knn_queries.size(); ++i) {
    want_knn[i] = BruteKnn(table, knn_queries[i].view().items(), kJ);
  }

  std::vector<double> setup_s;
  std::unique_ptr<topk::QueryFrontend> frontend;
  for (int i = 0; i < kSetups; ++i) {
    frontend.reset();
    const int64_t t0 = NowNs();
    frontend = std::make_unique<topk::QueryFrontend>(&rows);
    for (const Algorithm a : kRangeAlgorithms) frontend->Prepare(a);
    frontend->Prepare(Algorithm::kLinearScan);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Tracer tracer(args.trace);
  topk::Statistics stats;
  topk::Statistics* stats_ptr = args.trace ? &stats : nullptr;
  BlockPercentiles range_ms(sizes.round), knn_ms(kKnnBlock);
  std::vector<Sampled> sample;
  std::vector<const Request*> sample_requests;
  std::vector<uint8_t> sample_hit;  // 0 miss, 1 result hit, 2 candidate hit
  auto round = [&](size_t r) {
    const bool timed = r > 0;
    frontend->InvalidateCaches();
    for (size_t i = 0; i < stream.size(); ++i) {
      const Request& req = stream[i];
      const topk::PreparedQuery& q =
          req.knn ? knn_queries[req.query] : range_queries[req.query];
      const topk::ServeRequest request =
          req.knn ? topk::ServeRequest::Knn(Algorithm::kLinearScan, q, kJ)
                  : topk::ServeRequest::Range(req.algorithm, q, req.theta_raw);
      ++report.attempted;
      const int64_t t0 = NowNs();
      const std::vector<topk::ServeResponse> responses =
          frontend->ServeBatch(std::span(&request, 1), stats_ptr);
      const int64_t t1 = NowNs();
      const uint64_t id = r * stream.size() + i;
      const int64_t span =
          tracer.Add("serve.QueryFrontend.ServeBatch", t0, t1, -1, id);
      const topk::ServeResponse& response = responses[0];
      if (!response.status.ok()) {
        ++report.failed;
        continue;
      }
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      if (timed) (req.knn ? knn_ms : range_ms).Add(ms);
      if (r == 1) {
        sample.push_back(
            Sampled{&q, req.knn, req.theta_raw, req.knn ? kJ : 0, span, id});
        sample_requests.push_back(&req);
        sample_hit.push_back(response.result_cache_hit      ? 1
                             : response.candidate_cache_hit ? 2
                                                            : 0);
      }
      const std::string bad =
          req.knn ? CompareExact(ToNear(response.neighbors), want_knn[req.query])
                  : CompareExact(response.ids, want_range[req.distinct]);
      if (!bad.empty()) {
        report.Fail("frontend request " + std::to_string(i) +
                    (response.result_cache_hit ? " (result-cache hit): "
                                               : ": ") +
                    bad);
      }
    }
  };
  const std::vector<double> round_s = RunRounds(args.seconds, round);
  const double peak_rss = PeakRssMb();

  report.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", MedianRate(round_s, stream.size()), "1/s"},
      {"range_p50_ms", range_ms.Get(0.5), "ms"},
      {"range_p90_ms", range_ms.Get(0.9), "ms"},
      {"knn_p50_ms", knn_ms.Get(0.5), "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
  };

  if (args.trace) {
    LayerValues values;
    const topk::storage::CompressedInvertedIndex compressed =
        topk::storage::CompressedInvertedIndex::Build(rows);
    ReplayReadLayers(rows, &frontend->suite(), compressed, sample, &tracer,
                     &values);
    // The child a request's facade span stands on: nothing for a
    // result-cache hit, validation for a candidate-cache hit, else the
    // engine that answered it.
    auto child_names = [](const Request& req,
                          uint8_t hit) -> std::vector<std::string> {
      if (hit == 1) return {};
      if (req.knn) return {"metric.LinearScanKnn"};
      if (hit == 2) return {"kernel.FootruleValidator"};
      switch (req.algorithm) {
        case Algorithm::kFV:
          return {"kernel.FilterPhase", "kernel.FootruleValidator"};
        case Algorithm::kFVDrop:
          return {"invidx.FVDrop"};
        case Algorithm::kBlockedPruneDrop:
          return {"invidx.BlockedPruneDrop"};
        default:
          return {"coarse.CoarseDrop"};
      }
    };
    const ChildTimes children = ChildMicros(tracer);
    std::vector<double> self_us;
    for (size_t i = 0; i < sample.size(); ++i) {
      self_us.push_back(
          SelfMicros(tracer, children, sample[i].facade_span,
                     child_names(*sample_requests[i], sample_hit[i])));
    }
    values["serve.self_us_per_request"] = Median(self_us);
    auto ratio = [&](topk::Ticker hits, topk::Ticker misses) {
      const double h = static_cast<double>(stats.Get(hits));
      const double m = static_cast<double>(stats.Get(misses));
      return h + m > 0 ? h / (h + m) : 0;
    };
    values["serve.result_cache_hit_ratio"] = ratio(
        topk::Ticker::kResultCacheHits, topk::Ticker::kResultCacheMisses);
    values["serve.candidate_cache_hit_ratio"] =
        ratio(topk::Ticker::kCandidateCacheHits,
              topk::Ticker::kCandidateCacheMisses);
    report.per_layer = LayerReport(values);
    tracer.Write(args.work_dir + "/traces/frontend_yago.jsonl");
  }
  return report;
}

}  // namespace perfbench
