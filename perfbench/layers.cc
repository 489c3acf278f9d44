#include "layers.h"

#include <memory>

#include "core/statistics.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "metric/knn.h"

namespace perfbench {

using topk::Algorithm;
using topk::Statistics;
using topk::Ticker;

const std::vector<LayerMetricSpec> kLayerMetrics = {
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.candidate_cache_hit_ratio", "ratio"},
    {"serve.self_us_per_request", "us"},
    {"mutate.wait_share", "ratio"},
    {"mutate.range_us", "us"},
    {"mutate.knn_us", "us"},
    {"mutate.insert_us", "us"},
    {"mutate.delete_us", "us"},
    {"mutate.merges", "count"},
    {"mutate.merge_ms", "ms"},
    {"mutate.delta_rows_mean", "rows"},
    {"mutate.tombstones_mean", "rows"},
    {"kernel.filter_us_per_query", "us"},
    {"kernel.candidates_per_query", "count"},
    {"kernel.results_per_candidate", "ratio"},
    {"kernel.validate_us_per_query", "us"},
    {"kernel.distance_calls_per_query", "count"},
    {"kernel.lb_pruned_ratio", "ratio"},
    {"invidx.fv_drop_us_per_query", "us"},
    {"invidx.blocked_us_per_query", "us"},
    {"invidx.postings_scanned_per_query", "count"},
    {"invidx.lists_dropped_per_query", "count"},
    {"invidx.postings_skipped_ratio", "ratio"},
    {"coarse.us_per_query", "us"},
    {"coarse.partitions_probed_per_query", "count"},
    {"coarse.filter_share", "ratio"},
    {"coarse.build_s", "s"},
    {"metric.knn_scan_us_per_query", "us"},
    {"metric.knn_distance_calls_per_query", "count"},
    {"storage.decode_us_per_query", "us"},
    {"storage.snapshot_write_s", "s"},
    {"storage.snapshot_open_ms", "ms"},
    {"storage.bytes_per_posting", "B"},
    {"storage.generations_emitted", "count"},
    {"storage.emitted_bytes_per_inserted_byte", "ratio"},
};

std::vector<Metric> LayerReport(const LayerValues& values) {
  std::vector<Metric> out;
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    const auto it = values.find(spec.name);
    out.push_back(
        Metric{spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  return out;
}

namespace {

/// Times `fn` and records it as a child span of `s`.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, const Sampled& s, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  tracer->Add(name, start, end, s.facade_span, s.request);
  return static_cast<double>(end - start) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReplayReadLayers(const topk::RankingStore& store,
                      topk::EngineSuite* suite,
                      const topk::storage::CompressedInvertedIndex& compressed,
                      std::span<const Sampled> sample, Tracer* tracer,
                      LayerValues* values) {
  const topk::PlainInvertedIndex& plain = suite->plain_index();
  std::unique_ptr<topk::QueryEngine> fv_drop =
      suite->MakeEngine(Algorithm::kFVDrop);
  std::unique_ptr<topk::QueryEngine> blocked =
      suite->MakeEngine(Algorithm::kBlockedPruneDrop);
  std::unique_ptr<topk::QueryEngine> coarse =
      suite->MakeEngine(Algorithm::kCoarseDrop);
  (*values)["coarse.build_s"] =
      suite->BuildInfo(Algorithm::kCoarseDrop).build_ms / 1e3;

  topk::FilterScratch scratch, compressed_scratch;
  topk::FootruleValidator validator;
  std::vector<topk::RankingId> candidates;
  std::vector<topk::RankingId> accepted;
  std::vector<topk::RankingId> landing;
  const size_t domain = static_cast<size_t>(store.max_item()) + 1;

  double filter_us = 0, validate_us = 0, fv_drop_us = 0, blocked_us = 0;
  double coarse_us = 0, decode_us = 0, knn_us = 0;
  double coarse_filter_ms = 0, coarse_total_ms = 0;
  double lb_pruned = 0;
  Statistics kernel_stats, fv_stats, blocked_stats, coarse_stats, knn_stats;
  size_t ranges = 0, knns = 0;

  // One untimed pass warms every index and scratch buffer, so the timed
  // pass measures steady-state calls.
  for (int pass = 0; pass < 2; ++pass) {
    const bool timed = pass == 1;
    Tracer quiet(false);
    Tracer* t = timed ? tracer : &quiet;
    for (const Sampled& s : sample) {
      const topk::PreparedQuery& q = *s.query;
      if (s.knn) {
        Statistics st;
        const double us = Timed(t, "metric.LinearScanKnn", s, [&] {
          topk::LinearScanKnn(store, q, s.j, &st);
        });
        if (timed) {
          knn_us += us;
          knn_stats.MergeFrom(st);
          ++knns;
        }
        continue;
      }
      Statistics kst;
      const double f_us = Timed(t, "kernel.FilterPhase", s, [&] {
        const auto span =
            topk::FilterPhase(plain, q.view(), s.theta_raw,
                              topk::DropMode::kNone, store.size(), &scratch,
                              &kst);
        candidates.assign(span.begin(), span.end());
      });
      // The storage tier's own filter: the same union over the
      // compressed index, decoding each list.
      Timed(t, "storage.FilterPhase", s, [&] {
        topk::FilterPhase(compressed, q.view(), s.theta_raw,
                          topk::DropMode::kNone, store.size(),
                          &compressed_scratch);
      });
      accepted.clear();
      const double v_us = Timed(t, "kernel.FootruleValidator", s, [&] {
        validator.BindQuery(q.view(), domain);
        validator.ValidateSpan(store, candidates, s.theta_raw, &accepted,
                               &kst);
      });
      Statistics fst, bst, cst;
      const double fd_us = Timed(t, "invidx.FVDrop", s, [&] {
        fv_drop->Query(0, q, s.theta_raw, &fst, nullptr);
      });
      const double b_us = Timed(t, "invidx.BlockedPruneDrop", s, [&] {
        blocked->Query(0, q, s.theta_raw, &bst, nullptr);
      });
      topk::PhaseTimes phases;
      const double c_us = Timed(t, "coarse.CoarseDrop", s, [&] {
        coarse->Query(0, q, s.theta_raw, &cst, &phases);
      });
      const double d_us = Timed(t, "storage.DecodeList", s, [&] {
        for (const topk::ItemId item : q.view().items()) {
          compressed.DecodeList(item, &landing);
        }
      });
      if (!timed) continue;
      // The library ticks no early exit, so lb_pruned models the
      // validator's current scalar rule with the oracle's own copy of it;
      // a change to FootruleValidator's bound does not move it.
      const QueryTable table(q.view().items(), static_cast<uint32_t>(domain));
      for (const topk::RankingId id : candidates) {
        if (table.PrunedEarly(store.view(id).items(), s.theta_raw)) {
          lb_pruned += 1;
        }
      }
      kst.Add(Ticker::kCandidates, candidates.size());
      kst.Add(Ticker::kResults, accepted.size());
      kernel_stats.MergeFrom(kst);
      fv_stats.MergeFrom(fst);
      blocked_stats.MergeFrom(bst);
      coarse_stats.MergeFrom(cst);
      filter_us += f_us;
      validate_us += v_us;
      fv_drop_us += fd_us;
      blocked_us += b_us;
      coarse_us += c_us;
      coarse_filter_ms += phases.filter_ms;
      coarse_total_ms += phases.total_ms();
      decode_us += d_us;
      ++ranges;
    }
  }

  LayerValues& v = *values;
  const double nr = static_cast<double>(ranges);
  const double candidates_total =
      static_cast<double>(kernel_stats.Get(Ticker::kCandidates));
  v["kernel.filter_us_per_query"] = Ratio(filter_us, nr);
  v["kernel.candidates_per_query"] = Ratio(candidates_total, nr);
  v["kernel.results_per_candidate"] = Ratio(
      static_cast<double>(kernel_stats.Get(Ticker::kResults)),
      candidates_total);
  v["kernel.validate_us_per_query"] = Ratio(validate_us, nr);
  v["kernel.distance_calls_per_query"] = Ratio(
      static_cast<double>(kernel_stats.Get(Ticker::kDistanceCalls)), nr);
  v["kernel.lb_pruned_ratio"] = Ratio(lb_pruned, candidates_total);
  v["invidx.fv_drop_us_per_query"] = Ratio(fv_drop_us, nr);
  v["invidx.blocked_us_per_query"] = Ratio(blocked_us, nr);
  v["invidx.postings_scanned_per_query"] = Ratio(
      static_cast<double>(fv_stats.Get(Ticker::kPostingEntriesScanned)), nr);
  v["invidx.lists_dropped_per_query"] =
      Ratio(static_cast<double>(fv_stats.Get(Ticker::kListsDropped)), nr);
  const double b_scanned =
      static_cast<double>(blocked_stats.Get(Ticker::kPostingEntriesScanned));
  const double b_skipped =
      static_cast<double>(blocked_stats.Get(Ticker::kPostingEntriesSkipped));
  v["invidx.postings_skipped_ratio"] =
      Ratio(b_skipped, b_scanned + b_skipped);
  v["coarse.us_per_query"] = Ratio(coarse_us, nr);
  v["coarse.partitions_probed_per_query"] = Ratio(
      static_cast<double>(coarse_stats.Get(Ticker::kPartitionsProbed)), nr);
  v["coarse.filter_share"] = Ratio(coarse_filter_ms, coarse_total_ms);
  v["metric.knn_scan_us_per_query"] = Ratio(knn_us, static_cast<double>(knns));
  v["metric.knn_distance_calls_per_query"] =
      Ratio(static_cast<double>(knn_stats.Get(Ticker::kDistanceCalls)),
            static_cast<double>(knns));
  v["storage.decode_us_per_query"] = Ratio(decode_us, nr);
}

ChildTimes ChildMicros(const Tracer& tracer) {
  ChildTimes out;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.parent >= 0) out[s.parent][s.name] += s.us();
  }
  return out;
}

double SelfMicros(const Tracer& tracer, const ChildTimes& children,
                  int64_t span, const std::vector<std::string>& names) {
  double self = tracer.span(span).us();
  const auto it = children.find(span);
  if (it == children.end()) return self;
  for (const std::string& name : names) {
    const auto c = it->second.find(name);
    if (c != it->second.end()) self -= c->second;
  }
  return self;
}

void ReplayMutateLayer(topk::MutableStore* store,
                       std::span<const Sampled> sample,
                       std::span<const Items> inserts,
                       std::span<const uint32_t> deletes,
                       size_t merge_threshold, std::span<const Items> fill,
                       Tracer* tracer, LayerValues* values) {
  std::vector<double> range_us, knn_us, insert_us, delete_us;
  if (!inserts.empty()) {  // the first insert into a fresh delta sets it up
    store->Insert(topk::RankingView(inserts[0].data(),
                                    static_cast<uint32_t>(inserts[0].size())));
  }
  for (const Sampled& s : sample) {
    if (s.knn) {
      knn_us.push_back(Timed(tracer, "mutate.KnnQuery", s, [&] {
        store->KnnQuery(*s.query, s.j);
      }));
    } else {
      range_us.push_back(Timed(tracer, "mutate.RangeQuery", s, [&] {
        store->RangeQuery(*s.query, s.theta_raw);
      }));
    }
  }
  const Sampled none;
  for (const Items row : inserts) {
    const topk::RankingView view(row.data(), static_cast<uint32_t>(row.size()));
    insert_us.push_back(
        Timed(tracer, "mutate.Insert", none, [&] { store->Insert(view); }));
  }
  for (const uint32_t id : deletes) {
    delete_us.push_back(
        Timed(tracer, "mutate.Delete", none, [&] { store->Delete(id); }));
  }
  for (size_t i = 0; store->delta_size() < merge_threshold && !fill.empty();
       ++i) {
    const Items row = fill[i % fill.size()];
    store->Insert(topk::RankingView(row.data(),
                                    static_cast<uint32_t>(row.size())));
  }
  const double merge_us =
      Timed(tracer, "mutate.MergeNow", none, [&] { store->MergeNow(); });
  LayerValues& v = *values;
  v["mutate.range_us"] = Mean(range_us);
  v["mutate.knn_us"] = Mean(knn_us);
  v["mutate.insert_us"] = Mean(insert_us);
  v["mutate.delete_us"] = Mean(delete_us);
  v["mutate.merge_ms"] = merge_us / 1e3;
}

}  // namespace perfbench
