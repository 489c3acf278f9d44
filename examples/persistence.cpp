// Persistence workflow: generate a collection once, save it with its
// inverted index and its (expensive) coarse-index partitioning as one
// snapshot, then serve queries from a cold start by mapping the snapshot
// and rebuilding only the cheap structures.
//
//   build/examples/persistence [directory]
//
// Exits non-zero when any step fails or a cold-start answer differs from
// a linear scan, so it doubles as an end-to-end check.

#include <cstdio>
#include <iostream>
#include <string>

#include "storage/snapshot.h"
#include "topk.h"

int main(int argc, char** argv) {
  using namespace topk;
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string path = dir + "/example_collection.topksnp";

  // --- First run: build everything and persist it in one file. ---
  {
    std::cout << "building collection + partitioning...\n";
    const RankingStore store = Generate(NytLikeOptions(15000, 10, 77));
    Stopwatch partition_watch;
    const Partitioning partitioning = BkPartition(
        store, RawThreshold(0.4, store.k()), BkPartitionMode::kStrict);
    std::cout << "  partitioned " << store.size() << " rankings into "
              << partitioning.partitions.size() << " partitions in "
              << FormatDouble(partition_watch.ElapsedMillis(), 1) << " ms\n";

    const auto arena = storage::CompressedPostingArena<RankingId>::FromArena(
        PlainInvertedIndex::Build(store).arena());
    if (Status s = storage::WriteStoreSnapshot(store, arena, path,
                                               &partitioning);
        !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    std::cout << "  saved collection, index and partitioning to " << path
              << "\n\n";
  }

  // --- Cold start: map, read the partitioning, rebuild, serve. ---
  std::cout << "cold start: loading...\n";
  Stopwatch load_watch;
  auto snapshot = storage::OpenStoreSnapshot(path);
  if (!snapshot.ok()) {
    std::cerr << snapshot.status().ToString() << "\n";
    return 1;
  }
  auto partitioning = snapshot.value().ReadPartitioning();
  if (!partitioning.ok()) {
    std::cerr << partitioning.status().ToString() << "\n";
    return 1;
  }
  const RankingStore& store = snapshot.value().store();
  CoarseOptions options;
  options.theta_c = 0.4;
  const CoarseIndex index = CoarseIndex::BuildFromPartitioning(
      &store, options, std::move(partitioning).ValueOrDie());
  std::cout << "  ready in " << FormatDouble(load_watch.ElapsedMillis(), 1)
            << " ms (" << index.num_partitions() << " partitions)\n\n";

  // Serve a few queries, each checked against a linear scan.
  WorkloadOptions wopts;
  wopts.num_queries = 3;
  wopts.seed = 3;
  const auto queries = MakeWorkload(store, wopts);
  const RawDistance theta = RawThreshold(0.2, store.k());
  int exit_code = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    Statistics stats;
    const auto results = index.Query(queries[i], theta, &stats);
    const bool exact = results == LinearScanQuery(store, queries[i], theta);
    std::cout << "query #" << i << ": " << results.size() << " results, "
              << stats.Get(Ticker::kDistanceCalls) << " distance calls"
              << (exact ? "" : " — DIFFERS FROM LINEAR SCAN") << "\n";
    if (!exact) exit_code = 1;
  }

  std::remove(path.c_str());
  return exit_code;
}
