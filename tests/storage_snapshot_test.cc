// mmap snapshot suite: write/open round-trip, zero-copy query
// differential against the RAM-resident engines, corruption and
// truncation at every layer of the format (header, section table,
// section payloads), lazy checksum verification, the optional
// partitioning (round trip into a CoarseIndex, absence, one corrupt
// record per rejection rule), the retired TOPKSNP2 header, and the
// MutableStore merge-emitted snapshot.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/bk_partitioner.h"
#include "coarse/coarse_index.h"
#include "core/ranking.h"
#include "core/types.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "mutate/mutable_store.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot.h"
#include "storage/snapshot_manager.h"
#include "test_util.h"

namespace topk {
namespace {

using storage::CompressedPostingArena;
using storage::OpenStoreSnapshot;
using storage::SnapshotHeader;
using storage::SnapshotPartition;
using storage::SnapshotSection;
using storage::StoreSnapshot;
using storage::VerifySnapshotChecksums;
using storage::WriteStoreSnapshot;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Writes a snapshot of `store` (and its plain index, compressed), with
/// `partitioning` when non-null.
void WriteSnapshotOf(const RankingStore& store, const std::string& path,
                     const Partitioning* partitioning = nullptr) {
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const auto arena =
      CompressedPostingArena<RankingId>::FromArena(plain.arena());
  ASSERT_TRUE(WriteStoreSnapshot(store, arena, path, partitioning).ok());
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {  // fwrite(nullptr, ...) is UB even for 0 bytes
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
              bytes.size());
  }
  std::fclose(file);
}

/// The section table of a snapshot image.
std::vector<SnapshotSection> TableOf(const std::vector<uint8_t>& bytes) {
  std::vector<SnapshotSection> table(storage::kSnapshotSectionCount);
  std::memcpy(table.data(), bytes.data() + sizeof(SnapshotHeader),
              table.size() * sizeof(SnapshotSection));
  return table;
}

/// The end of the last payload byte (NOT the file end: the file is
/// padded out to a page boundary, and shaving padding alone is not
/// corruption).
size_t PayloadEnd(const std::vector<uint8_t>& bytes) {
  size_t end = 0;
  for (const SnapshotSection& section : TableOf(bytes)) {
    if (section.size > 0) {
      end = std::max(end, static_cast<size_t>(section.offset + section.size));
    }
  }
  return end;
}

/// Read-modify-write of one T at `offset` of a snapshot image.
template <typename T>
void Patch(std::vector<uint8_t>* bytes, size_t offset,
           const std::function<void(T*)>& edit) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  T value;
  std::memcpy(&value, bytes->data() + offset, sizeof(T));
  edit(&value);
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

/// Recomputes every section checksum and the section-table checksum, so
/// a structural corruption reaches ReadPartitioning's rules instead of
/// stopping at its checksum guard.
void RefreshChecksums(std::vector<uint8_t>* bytes) {
  std::vector<SnapshotSection> table = TableOf(*bytes);
  for (SnapshotSection& section : table) {
    section.checksum = storage::SnapshotChecksum(
        bytes->data() + section.offset, static_cast<size_t>(section.size));
  }
  const size_t table_bytes = table.size() * sizeof(SnapshotSection);
  std::memcpy(bytes->data() + sizeof(SnapshotHeader), table.data(),
              table_bytes);
  Patch<SnapshotHeader>(bytes, 0, [&](SnapshotHeader* header) {
    header->directory_checksum =
        storage::SnapshotChecksum(table.data(), table_bytes);
  });
}

Partitioning PartitioningOf(const RankingStore& store) {
  return BkPartition(store, RawThreshold(0.3, store.k()),
                     BkPartitionMode::kStrict);
}

TEST(StoreSnapshot, RoundTripsStoreAndIndex) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 3);
  const std::string path = TempPath("roundtrip.snap");
  WriteSnapshotOf(store, path);

  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();
  ASSERT_TRUE(snapshot.store().external());
  ASSERT_EQ(snapshot.store().size(), store.size());
  ASSERT_EQ(snapshot.store().k(), store.k());
  ASSERT_EQ(snapshot.store().max_item(), store.max_item());
  for (RankingId id = 0; id < store.size(); ++id) {
    const auto expected = store.view(id).items();
    const auto actual = snapshot.store().view(id).items();
    ASSERT_EQ(0, std::memcmp(actual.data(), expected.data(),
                             expected.size_bytes()))
        << "row " << id;
  }
  EXPECT_TRUE(VerifySnapshotChecksums(path).ok());
  std::remove(path.c_str());
}

TEST(StoreSnapshot, MmapQueriesMatchRamEngines) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 5);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const std::string path = TempPath("differential.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();

  const RawDistance dmax = MaxDistance(store.k());
  for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                              DropMode::kPositionRefined}) {
    FilterValidateEngine reference(&store, &plain, {drop});
    storage::CompressedFilterValidateEngine tier(&snapshot.store(),
                                                 &snapshot.index(), {drop});
    for (const auto& query : testutil::MakeQueries(store, 8, 17)) {
      for (const RawDistance theta : {dmax / 4, dmax / 2, dmax}) {
        Statistics ref_stats;
        Statistics tier_stats;
        const auto expected = reference.Query(query, theta, &ref_stats);
        const auto actual = tier.Query(query, theta, &tier_stats);
        ASSERT_EQ(actual, expected)
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
        ASSERT_EQ(tier_stats, ref_stats);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, OpenIsZeroCopy) {
  const RankingStore store = testutil::MakeClusteredStore(10, 2000, 9);
  const std::string path = TempPath("lazy.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Zero-copy contract, part 1 (deterministic): the adopted store and
  // index hold NO heap copies of the mapped sections — every byte is
  // served out of the mapping.
  EXPECT_GT(opened.value().mapped_bytes(), size_t{0});
  EXPECT_EQ(opened.value().store().MemoryUsage(), size_t{0});
  EXPECT_EQ(opened.value().index().MemoryUsage(), size_t{0});
  // Part 2 (residency): mincore counts page-cache residency, and a
  // freshly written file is fully cached, so evict it first (the pages
  // are clean after fdatasync); after eviction the mapping must not be
  // fully resident — open touched only metadata. Skipped silently where
  // eviction is unsupported; bench_storage reports the same evidence on
  // the real datasets.
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  ::fdatasync(fd);
  const bool evicted =
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  if (evicted) {
    EXPECT_LT(opened.value().ResidentBytes(), opened.value().mapped_bytes())
        << "open faulted in the entire snapshot";
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, RejectsMissingAndEmptyAndTruncatedFiles) {
  EXPECT_EQ(OpenStoreSnapshot(TempPath("does-not-exist.snap")).status().code(),
            Status::Code::kNotFound);

  const std::string path = TempPath("degenerate.snap");
  WriteBytes(path, {});  // zero-length file
  EXPECT_FALSE(OpenStoreSnapshot(path).ok());
  EXPECT_FALSE(VerifySnapshotChecksums(path).ok());

  const RankingStore store = testutil::MakeClusteredStore(8, 120, 13);
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);
  const size_t last_payload_end = PayloadEnd(good);
  ASSERT_GT(last_payload_end, size_t{0});
  // Truncation at every structural boundary: mid-header, mid-table,
  // mid-payload, one payload byte short.
  for (const size_t keep :
       {sizeof(SnapshotHeader) / 2, sizeof(SnapshotHeader) + 16,
        good.size() / 2, last_payload_end - 1}) {
    WriteBytes(path, std::vector<uint8_t>(good.begin(),
                                          good.begin() +
                                              static_cast<ptrdiff_t>(keep)));
    EXPECT_FALSE(OpenStoreSnapshot(path).ok()) << "keep=" << keep;
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok()) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, RejectsHeaderAndTableCorruption) {
  const RankingStore store = testutil::MakeClusteredStore(8, 120, 15);
  const std::string path = TempPath("corrupt-meta.snap");
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);

  // Bad magic, bad version, corrupted section table (directory checksum
  // catches the flip), byte-order tag, k, ranking count.
  const size_t offsets[] = {0, 8, sizeof(SnapshotHeader) + 8, 16,
                            offsetof(SnapshotHeader, k),
                            offsetof(SnapshotHeader, num_rankings)};
  for (const size_t offset : offsets) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= 0xff;
    WriteBytes(path, bad);
    EXPECT_FALSE(OpenStoreSnapshot(path).ok()) << "offset=" << offset;
  }
  // A ranking count whose n * k wraps: only the overflow-safe bound
  // check can tell it from a count that matches the column sections.
  std::vector<uint8_t> bad = good;
  Patch<SnapshotHeader>(&bad, 0, [](SnapshotHeader* header) {
    header->num_rankings = ~uint64_t{0} - 1;
  });
  WriteBytes(path, bad);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().ToString().find("implausibly large"),
            std::string::npos)
      << opened.status().ToString();
  std::remove(path.c_str());
}

TEST(StoreSnapshot, PayloadCorruptionIsCaughtByVerifyNotOpen) {
  const RankingStore store = testutil::MakeClusteredStore(8, 200, 19);
  const std::string path = TempPath("corrupt-payload.snap");
  WriteSnapshotOf(store, path);
  std::vector<uint8_t> bad = ReadFile(path);
  // Flip one byte inside the compressed byte stream's payload (NOT page
  // padding, which no checksum covers): open stays lazy and cheap, the
  // full verify must catch it.
  const SnapshotSection stream = TableOf(bad)[6];
  ASSERT_EQ(stream.id, SnapshotSection::kByteStream);
  ASSERT_GT(stream.size, uint64_t{0});
  bad[static_cast<size_t>(stream.offset)] ^= 0xff;
  WriteBytes(path, bad);
  auto opened = OpenStoreSnapshot(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  std::remove(path.c_str());
}

TEST(StoreSnapshot, MergeEmitsLoadableSnapshot) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 300, 23);
  const std::string dir = TempPath("merge-emitted");
  std::filesystem::remove_all(dir);
  MutableStoreOptions options;
  options.snapshot_dir = dir;
  MutableStore live(initial, options);

  // Mutate, then merge: the snapshot must freeze the rebuilt segment.
  const RankingStore extra = testutil::MakeClusteredStore(10, 50, 29);
  for (RankingId id = 0; id < extra.size(); ++id) {
    live.Insert(extra.view(id));
  }
  ASSERT_TRUE(live.Delete(3));
  ASSERT_TRUE(live.MergeNow());
  ASSERT_TRUE(live.last_snapshot_status().ok())
      << live.last_snapshot_status().ToString();

  storage::SnapshotManager manager(dir);
  auto recovered = manager.OpenNewestValid();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().generation, 1u);
  const StoreSnapshot& opened = recovered.value().snapshot;
  EXPECT_EQ(opened.store().size(), live.live_size());
  EXPECT_EQ(opened.ReadPartitioning().status().code(),
            Status::Code::kNotFound);

  // The frozen rows answer queries identically to a plain engine over
  // the same rows.
  const RankingStore& frozen = opened.store();
  RankingStore rebuilt(frozen.k());
  for (RankingId id = 0; id < frozen.size(); ++id) {
    rebuilt.AddUnchecked(frozen.view(id).items());
  }
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(rebuilt);
  FilterValidateEngine reference(&rebuilt, &plain, {});
  storage::CompressedFilterValidateEngine tier(&frozen, &opened.index(),
                                               {});
  const RawDistance theta = MaxDistance(frozen.k()) / 3;
  for (const auto& query : testutil::MakeQueries(rebuilt, 6, 31)) {
    EXPECT_EQ(tier.Query(query, theta), reference.Query(query, theta));
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreSnapshot, RejectsForeignByteOrderAndLayout) {
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 37);
  const std::string path = TempPath("foreign-abi.snap");
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);
  // The byte_order and layout tags sit at header offsets 16 and 20; the
  // directory checksum covers only the section table, so tampering with
  // either tag needs no checksum re-fix to reach the guard.
  {
    // A byte-swapped writer: the reader sees the tag permuted.
    std::vector<uint8_t> bad = good;
    std::reverse(bad.begin() + 16, bad.begin() + 20);
    WriteBytes(path, bad);
    auto opened = OpenStoreSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("byte order"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  }
  {
    // A writer with different struct padding / word sizes: layout tag
    // disagrees with this build's fingerprint.
    std::vector<uint8_t> bad = good;
    bad[20] ^= 0xff;
    WriteBytes(path, bad);
    auto opened = OpenStoreSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("layout"), std::string::npos)
        << opened.status().ToString();
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, PartitioningRoundTripRebuildsTheSameCoarseIndex) {
  const RankingStore store = testutil::MakeClusteredStore(10, 600, 47);
  const Partitioning original = PartitioningOf(store);
  ASSERT_GT(original.partitions.size(), size_t{1});
  const std::string path = TempPath("partitioned.snap");
  WriteSnapshotOf(store, path, &original);
  EXPECT_TRUE(VerifySnapshotChecksums(path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto read = opened.value().ReadPartitioning();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().partitions.size(), original.partitions.size());
  for (size_t i = 0; i < original.partitions.size(); ++i) {
    const Partition& expected = original.partitions[i];
    const Partition& actual = read.value().partitions[i];
    EXPECT_EQ(actual.medoid, expected.medoid) << "partition " << i;
    EXPECT_EQ(actual.radius, expected.radius) << "partition " << i;
    EXPECT_EQ(actual.members, expected.members) << "partition " << i;
  }

  // A CoarseIndex rebuilt over the mapped rows from the read-back
  // partitioning answers exactly as one built from the original.
  CoarseOptions options;
  options.theta_c = 0.3;
  const CoarseIndex from_original =
      CoarseIndex::BuildFromPartitioning(&store, options, original);
  const CoarseIndex from_snapshot = CoarseIndex::BuildFromPartitioning(
      &opened.value().store(), options, std::move(read).ValueOrDie());
  const RawDistance dmax = MaxDistance(store.k());
  for (const auto& query : testutil::MakeQueries(store, 8, 53)) {
    for (const RawDistance theta : {dmax / 8, dmax / 4, dmax / 2}) {
      const auto expected = from_original.Query(query, theta);
      ASSERT_EQ(from_snapshot.Query(query, theta), expected)
          << "theta=" << theta;
      ASSERT_EQ(expected, testutil::BruteForce(store, query, theta));
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, SnapshotWithoutPartitioningReadsNotFound) {
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 49);
  const std::string path = TempPath("unpartitioned.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().ReadPartitioning().status().code(),
            Status::Code::kNotFound);
  // Both partitioning sections are present and empty.
  const std::vector<SnapshotSection> table = TableOf(ReadFile(path));
  EXPECT_EQ(table[7].id, SnapshotSection::kPartitions);
  EXPECT_EQ(table[7].size, uint64_t{0});
  EXPECT_EQ(table[8].id, SnapshotSection::kPartitionMembers);
  EXPECT_EQ(table[8].size, uint64_t{0});
  std::remove(path.c_str());
}

TEST(StoreSnapshot, ReadPartitioningRejectsOneCorruptRecordPerRule) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 59);
  const Partitioning partitioning = PartitioningOf(store);
  ASSERT_GE(partitioning.partitions.size(), size_t{3});
  const std::string path = TempPath("corrupt-partitioning.snap");
  WriteSnapshotOf(store, path, &partitioning);
  const std::vector<uint8_t> good = ReadFile(path);
  const std::vector<SnapshotSection> table = TableOf(good);
  const size_t num_partitions =
      static_cast<size_t>(table[7].size / sizeof(SnapshotPartition));
  const size_t num_members =
      static_cast<size_t>(table[8].size / sizeof(RankingId));
  const auto record = [&](size_t i) {
    return static_cast<size_t>(table[7].offset) +
           i * sizeof(SnapshotPartition);
  };
  const auto member = [&](size_t i) {
    return static_cast<size_t>(table[8].offset) + i * sizeof(RankingId);
  };
  const auto end_of = [&](size_t i) {
    SnapshotPartition partition;
    std::memcpy(&partition, good.data() + record(i), sizeof(partition));
    return partition.members_end;
  };

  struct Case {
    const char* rule;
    const char* message;
    bool refresh_checksums;
    std::function<void(std::vector<uint8_t>*)> corrupt;
  };
  const Case cases[] = {
      {"member id >= n", "member id", true,
       [&](std::vector<uint8_t>* bytes) {
         Patch<RankingId>(bytes, member(num_members - 1),
                          [&](RankingId* id) {
                            *id = static_cast<RankingId>(store.size());
                          });
       }},
      {"medoid does not lead its members", "does not lead", true,
       [&](std::vector<uint8_t>* bytes) {
         Patch<SnapshotPartition>(bytes, record(0),
                                  [](SnapshotPartition* p) { ++p->medoid; });
       }},
      {"non-monotone end offsets", "not monotone", true,
       [&](std::vector<uint8_t>* bytes) {
         Patch<SnapshotPartition>(
             bytes, record(1),
             [&](SnapshotPartition* p) { p->members_end = end_of(0) - 1; });
       }},
      {"end offset past the member array", "past the member array", true,
       [&](std::vector<uint8_t>* bytes) {
         Patch<SnapshotPartition>(
             bytes, record(num_partitions - 1),
             [&](SnapshotPartition* p) { p->members_end = num_members + 1; });
       }},
      {"members the table does not cover", "table covers", true,
       [&](std::vector<uint8_t>* bytes) {
         // Drop the last record from the table section (and the header
         // count with it): its members are left over.
         Patch<SnapshotSection>(
             bytes, sizeof(SnapshotHeader) + 7 * sizeof(SnapshotSection),
             [](SnapshotSection* s) { s->size -= sizeof(SnapshotPartition); });
         Patch<SnapshotHeader>(bytes, 0,
                               [](SnapshotHeader* h) { --h->num_partitions; });
       }},
      {"header count the table section cannot hold", "count disagrees",
       false,
       [&](std::vector<uint8_t>* bytes) {
         Patch<SnapshotHeader>(bytes, 0,
                               [](SnapshotHeader* h) { ++h->num_partitions; });
       }},
      {"record bytes that fail their checksum", "checksum", false,
       [&](std::vector<uint8_t>* bytes) {
         Patch<SnapshotPartition>(bytes, record(0),
                                  [](SnapshotPartition* p) { ++p->radius; });
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    std::vector<uint8_t> bad = good;
    c.corrupt(&bad);
    if (c.refresh_checksums) RefreshChecksums(&bad);
    WriteBytes(path, bad);
    // Open reads no partitioning payload, so it stays cheap and succeeds.
    auto opened = OpenStoreSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const auto read = opened.value().ReadPartitioning();
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(read.status().ToString().find(c.message), std::string::npos)
        << read.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, WriteRejectsInvalidPartitioning) {
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 67);
  Partitioning partitioning = PartitioningOf(store);
  partitioning.partitions.back().members.push_back(
      static_cast<RankingId>(store.size()));
  const std::string path = TempPath("invalid-partitioning.snap");
  std::remove(path.c_str());
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const auto arena =
      CompressedPostingArena<RankingId>::FromArena(plain.arena());
  const Status status = WriteStoreSnapshot(store, arena, path, &partitioning);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(StoreSnapshot, RejectsRetiredTopksnp2Header) {
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 61);
  const std::string dir = TempPath("retired-format");
  std::filesystem::remove_all(dir);
  storage::SnapshotManager manager(dir);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const auto arena =
      CompressedPostingArena<RankingId>::FromArena(plain.arena());
  ASSERT_TRUE(manager.WriteSnapshot(store, arena).ok());
  const std::string path = manager.GenerationPath(1);
  std::vector<uint8_t> bytes = ReadFile(path);
  // The header a TOPKSNP2 writer leaves: magic "TOPKSNP2", version 2.
  Patch<SnapshotHeader>(&bytes, 0, [](SnapshotHeader* header) {
    header->magic[7] = '2';
    header->version = 2;
  });
  WriteBytes(path, bytes);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(opened.status().ToString().find("TOPKSNP2"), std::string::npos)
      << opened.status().ToString();
  EXPECT_FALSE(VerifySnapshotChecksums(path).ok());

  // Recovery quarantines the retired generation as invalid, and the next
  // emission is readable again.
  EXPECT_EQ(manager.OpenNewestValid().status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(manager.QuarantinedCount(), size_t{1});
  ASSERT_TRUE(manager.WriteSnapshot(store, arena).ok());
  auto recovered = manager.OpenNewestValid();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().snapshot.store().size(), store.size());
  std::filesystem::remove_all(dir);
}

TEST(StoreSnapshot, WriteRejectsEmptyStore) {
  const RankingStore store(5);
  const CompressedPostingArena<RankingId> arena;
  EXPECT_FALSE(
      WriteStoreSnapshot(store, arena, TempPath("empty.snap")).ok());
}

}  // namespace
}  // namespace topk
