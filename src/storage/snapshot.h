// mmap-backed store snapshots: the larger-than-RAM load path and the
// one on-disk format of the library.
//
// A snapshot file freezes a RankingStore, the compressed posting arena
// of its serving inverted index and, optionally, a coarse-index
// Partitioning (the product of the distance-heavy clustering pass, the
// one artifact not cheap to rebuild) into one page-aligned, sectioned
// image, so OpenStoreSnapshot can mmap the file and serve queries
// zero-copy: the three store columns and the arena sections are pointed
// at in place (RankingStore::AdoptExternal,
// CompressedPostingArena::Adopt) and page in on demand. Nothing but the
// header, the section table, and the arena *metadata* sections is
// touched at open time — the posting payloads, the row columns and the
// partitioning stay cold until a query walks them (or
// StoreSnapshot::ReadPartitioning copies the partitioning out), which is
// what makes a collection larger than RAM servable (bench/bench_storage.cc
// evidences this with mincore residency counts).
//
// Layout (all integers in host byte order: this is cache persistence,
// not an interchange format; see DESIGN.md "On-disk formats". The
// header *records* the writer's byte order and element-layout
// fingerprint so a reader on a foreign ABI fails with a Status instead
// of misinterpreting the sections):
//
//   SnapshotHeader        magic "TOPKSNP3", version, byte-order and
//                         layout tags, counts (k, n, max_item, arena
//                         entries, partitions), and an FNV-1a checksum
//                         over the section table;
//   SectionEntry[9]       id, byte offset, byte size, FNV-1a checksum
//                         of the payload;
//   sections              each padded to a 4096-byte boundary:
//                         1 items, 2 sorted_items, 3 sorted_ranks (the
//                         store columns), 4 list metas, 5 block metas,
//                         6 inline entries, 7 block byte stream (the
//                         plain arena), 8 partition table (one
//                         SnapshotPartition per partition), 9 partition
//                         members (every partition's member ids, back
//                         to back). Sections 8 and 9 are empty when the
//                         writer passed no partitioning.
//
// Integrity is two-tier by design: OpenStoreSnapshot verifies the
// header and the section-table checksum and bounds-checks every
// section (plus the arena metadata, via Adopt) — cheap, O(metadata).
// Per-section payload checksums are verified only by the separate
// VerifySnapshotChecksums, because checksumming gigabytes of payload
// at open would fault in every page and defeat the zero-copy load.
// ReadPartitioning is the exception: it copies its two sections out
// anyway, so it verifies their checksums and every structural rule of
// the partitioning on the way.

#ifndef TOPK_STORAGE_SNAPSHOT_H_
#define TOPK_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "cluster/partitioner.h"
#include "core/ranking.h"
#include "core/status.h"
#include "storage/compressed_index.h"

namespace topk {
namespace storage {

inline constexpr char kSnapshotMagic[8] = {'T', 'O', 'P', 'K',
                                           'S', 'N', 'P', '3'};
inline constexpr uint32_t kSnapshotVersion = 3;
inline constexpr uint32_t kSnapshotSectionCount = 9;
inline constexpr size_t kSnapshotPageSize = 4096;

/// Stored in the header as a native integer: a reader whose byte order
/// differs from the writer's sees the bytes permuted and rejects.
inline constexpr uint32_t kSnapshotByteOrder = 0x01020304u;

/// One partition of the optional partitioning (section 8). Its members
/// are the member-array slice [previous record's members_end,
/// members_end), and the medoid leads them.
struct SnapshotPartition {
  RankingId medoid;
  uint32_t reserved;  // zero; keeps the 64-bit fields aligned
  RawDistance radius;
  uint64_t members_end;
};
static_assert(sizeof(SnapshotPartition) == 24);

/// Element-layout fingerprint: the packed sizeofs of the record types
/// the sections are reinterpreted as. A writer compiled with a different
/// struct layout (padding, word size) produces a different tag, and
/// the reader rejects instead of walking misaligned metadata.
inline constexpr uint32_t kSnapshotLayout =
    (static_cast<uint32_t>(sizeof(CompressedListMeta)) << 0) |
    (static_cast<uint32_t>(sizeof(CompressedBlockMeta)) << 8) |
    (static_cast<uint32_t>(sizeof(SnapshotPartition)) << 16) |
    (static_cast<uint32_t>(sizeof(RankingId)) << 24);

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint32_t byte_order;  // kSnapshotByteOrder as written by the producer
  uint32_t layout;      // kSnapshotLayout of the producer's build
  uint32_t k;
  uint32_t max_item;
  uint64_t num_rankings;
  uint64_t num_arena_entries;
  uint64_t num_partitions;      // 0 when no partitioning was written
  uint64_t directory_checksum;  // FNV-1a over the section table bytes
};
static_assert(sizeof(SnapshotHeader) == 64);

struct SnapshotSection {
  enum Id : uint32_t {
    kItems = 1,
    kSortedItems = 2,
    kSortedRanks = 3,
    kListMetas = 4,
    kBlockMetas = 5,
    kInlineEntries = 6,
    kByteStream = 7,
    kPartitions = 8,
    kPartitionMembers = 9,
  };
  uint32_t id;
  uint32_t reserved;  // zero; keeps the 64-bit fields aligned
  uint64_t offset;    // from file start, kSnapshotPageSize-aligned
  uint64_t size;      // payload bytes (padding excluded)
  uint64_t checksum;  // FNV-1a of the payload bytes
};
static_assert(sizeof(SnapshotSection) == 32);

/// FNV-1a 64-bit, the checksum of every section and of the table.
uint64_t SnapshotChecksum(const void* data, size_t size);

/// Writes `store` + its compressed plain arena (one list per item id in
/// [0, max_item]) as a snapshot at `path`, plus `partitioning` when
/// non-null (one with no partitions is stored as none). The store must
/// not be empty, and a partitioning must pass the rules
/// StoreSnapshot::ReadPartitioning checks (InvalidArgument otherwise,
/// before any file is touched).
Status WriteStoreSnapshot(const RankingStore& store,
                          const CompressedPostingArena<RankingId>& arena,
                          const std::string& path,
                          const Partitioning* partitioning = nullptr);

/// An open snapshot: a frozen RankingStore plus its compressed inverted
/// index, served zero-copy out of one shared mmap'd region. Move-only;
/// the mapping unmaps when the last StoreSnapshot referencing it dies.
class StoreSnapshot {
 public:
  StoreSnapshot(StoreSnapshot&&) = default;
  StoreSnapshot& operator=(StoreSnapshot&&) = default;

  const RankingStore& store() const { return store_; }
  const CompressedInvertedIndex& index() const { return index_; }

  /// Copies the stored partitioning out of the mapping, verifying its
  /// two sections' checksums and its structure: every member id < n,
  /// each medoid leads its members, end offsets non-decreasing and the
  /// last one exactly at the member array's end, and a partition count
  /// that the header and the table section agree on. NotFound when the
  /// snapshot holds no partitioning; InvalidArgument on any violation.
  Result<Partitioning> ReadPartitioning() const;

  /// Total bytes mapped (the file size).
  size_t mapped_bytes() const;

  /// Bytes of the mapping currently resident in memory (via mincore);
  /// returns 0 where unsupported. Right after open this is a small
  /// fraction of mapped_bytes() — the zero-copy evidence the storage
  /// bench records.
  size_t ResidentBytes() const;

 private:
  friend Result<StoreSnapshot> OpenStoreSnapshot(const std::string& path);

  class Mapping;  // RAII mmap region (defined in snapshot.cc)

  /// The partitioning sections as mapped, plus what the header and the
  /// section table say about them; read only by ReadPartitioning.
  struct PartitionSections {
    uint64_t declared_count = 0;
    std::span<const SnapshotPartition> table;
    std::span<const RankingId> members;
    uint64_t table_checksum = 0;
    uint64_t members_checksum = 0;
  };

  StoreSnapshot(std::shared_ptr<Mapping> mapping, RankingStore store,
                CompressedInvertedIndex index, PartitionSections partitions)
      : mapping_(std::move(mapping)),
        store_(std::move(store)),
        index_(std::move(index)),
        partitions_(partitions) {}

  std::shared_ptr<Mapping> mapping_;
  RankingStore store_;
  CompressedInvertedIndex index_;
  PartitionSections partitions_;
};

/// Maps `path` and wires the zero-copy store + index. Verifies the
/// header (including the byte-order and layout tags), the
/// section-table checksum, section bounds/alignment, and the arena
/// metadata; does NOT read the payload sections (see the header
/// comment for why).
Result<StoreSnapshot> OpenStoreSnapshot(const std::string& path);

/// Reads every section payload and verifies its checksum. O(file
/// size); run this when integrity matters more than load latency
/// (e.g. after a transfer), not on every open.
Status VerifySnapshotChecksums(const std::string& path);

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_SNAPSHOT_H_
