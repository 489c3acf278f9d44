// Per-layer replays of the traced run.
//
// After the timed phase, a sample of each workload's requests is fed
// again, one at a time and uncontended, through the entry points of the
// layers under the serving facades: the kernel (FilterPhase,
// FootruleValidator), the inverted-index engines, the coarse index, the
// metric k-NN scan, the compressed storage tier and the live store. Each
// replay is recorded as a span whose parent is the request's facade
// span, and the per-layer metrics are computed from those spans and the
// library's Statistics tickers.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/ranking.h"
#include "harness/query_algorithms.h"
#include "mutate/mutable_store.h"
#include "storage/compressed_index.h"

namespace perfbench {

/// Every per-layer metric, in report order, with its unit.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricSpec> kLayerMetrics;

/// Per-layer values by name; names not set report 0 (the layer does no
/// work on that workload).
using LayerValues = std::map<std::string, double>;

/// Orders `values` as kLayerMetrics, filling the unset ones with 0.
std::vector<Metric> LayerReport(const LayerValues& values);

/// One sampled request to replay.
struct Sampled {
  const topk::PreparedQuery* query = nullptr;
  bool knn = false;
  uint64_t theta_raw = 0;  // range requests
  size_t j = 0;            // k-NN requests
  int64_t facade_span = -1;
  uint64_t request = 0;
};

/// Replays `sample` through the kernel, inverted-index, coarse, metric
/// and storage-decode entry points over `store`, which the engines of
/// `suite` index. Adds spans to `tracer` and metrics to `values`.
void ReplayReadLayers(const topk::RankingStore& store,
                      topk::EngineSuite* suite,
                      const topk::storage::CompressedInvertedIndex& compressed,
                      std::span<const Sampled> sample, Tracer* tracer,
                      LayerValues* values);

/// Replayed child time (µs) of each facade span, by parent span id and
/// child span name.
using ChildTimes = std::map<int64_t, std::map<std::string, double>>;
ChildTimes ChildMicros(const Tracer& tracer);

/// A facade span's own time: its duration minus its replayed children
/// named in `names`.
double SelfMicros(const Tracer& tracer, const ChildTimes& children,
                  int64_t span, const std::vector<std::string>& names);

/// Uncontended MutableStore calls: the sampled reads, `inserts` and
/// `deletes`, then one merge of a delta filled to `merge_threshold` from
/// `fill` rows. Sets mutate.{range,knn,insert,delete}_us and
/// mutate.merge_ms.
void ReplayMutateLayer(topk::MutableStore* store,
                       std::span<const Sampled> sample,
                       std::span<const Items> inserts,
                       std::span<const uint32_t> deletes,
                       size_t merge_threshold, std::span<const Items> fill,
                       Tracer* tracer, LayerValues* values);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
