#include "storage/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/failpoint.h"

namespace topk {
namespace storage {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvUpdate(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

size_t PageAlign(size_t offset) {
  return (offset + kSnapshotPageSize - 1) & ~(kSnapshotPageSize - 1);
}

/// One section to be written: payload pointer + size, id.
struct SectionPayload {
  uint32_t id;
  const void* data;
  size_t size;
};

/// RAII stdio handle so every early return closes the file.
struct FileCloser {
  explicit FileCloser(std::FILE* f) : file(f) {}
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);  // syscall-ok: RAII cleanup
  }
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;
  std::FILE* file;
};

bool WritePadded(std::FILE* file, const void* data, size_t size,
                 size_t padded_size) {
  if (size > 0 && std::fwrite(data, 1, size, file) != size) return false;
  static constexpr char kZeros[256] = {};
  size_t pad = padded_size - size;
  while (pad > 0) {
    const size_t chunk = pad < sizeof(kZeros) ? pad : sizeof(kZeros);
    if (std::fwrite(kZeros, 1, chunk, file) != chunk) return false;
    pad -= chunk;
  }
  return true;
}

/// The structural rules of a flattened partitioning, shared by the
/// writer (before it touches the file) and ReadPartitioning (after it
/// copies the sections out). The count rule between the header and the
/// table section is ReadPartitioning's own.
Status ValidatePartitionSections(std::span<const SnapshotPartition> table,
                                 std::span<const RankingId> members,
                                 uint64_t num_rankings) {
  for (const RankingId id : members) {
    if (id >= num_rankings) {
      return Status::InvalidArgument("snapshot partition member id " +
                                     std::to_string(id) + " >= n");
    }
  }
  uint64_t begin = 0;
  for (const SnapshotPartition& partition : table) {
    if (partition.members_end < begin) {
      return Status::InvalidArgument(
          "snapshot partition end offsets are not monotone");
    }
    if (partition.members_end > members.size()) {
      return Status::InvalidArgument(
          "snapshot partition ends past the member array");
    }
    if (partition.members_end == begin ||
        members[static_cast<size_t>(begin)] != partition.medoid) {
      return Status::InvalidArgument(
          "snapshot partition medoid does not lead its members");
    }
    begin = partition.members_end;
  }
  if (begin != members.size()) {
    return Status::InvalidArgument(
        "snapshot partition member count exceeds what the partition "
        "table covers");
  }
  return Status::OK();
}

/// Header checks shared by OpenStoreSnapshot and VerifySnapshotChecksums.
Status ValidateHeader(const SnapshotHeader& header) {
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic)) != 0) {
    if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic) - 1) ==
        0) {
      return Status::InvalidArgument(
          "unsupported snapshot format " +
          std::string(header.magic, sizeof(header.magic)) +
          " (this build reads TOPKSNP3 only)");
    }
    return Status::InvalidArgument("not a snapshot file (bad magic)");
  }
  if (header.version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  if (header.section_count != kSnapshotSectionCount) {
    return Status::InvalidArgument("unexpected snapshot section count");
  }
  if (header.byte_order != kSnapshotByteOrder) {
    return Status::InvalidArgument(
        "snapshot byte order differs from this machine's (snapshots are "
        "host-endian cache files, not an interchange format)");
  }
  if (header.layout != kSnapshotLayout) {
    return Status::InvalidArgument(
        "snapshot element layout differs from this build's (word size or "
        "struct layout mismatch)");
  }
  if (header.k == 0 || header.num_rankings == 0) {
    return Status::InvalidArgument("snapshot declares an empty store");
  }
  return Status::OK();
}

}  // namespace

uint64_t SnapshotChecksum(const void* data, size_t size) {
  return FnvUpdate(kFnvOffset, data, size);
}

Status WriteStoreSnapshot(const RankingStore& store,
                          const CompressedPostingArena<RankingId>& arena,
                          const std::string& path,
                          const Partitioning* partitioning) {
  if (store.empty()) {
    return Status::InvalidArgument("cannot snapshot an empty store");
  }
  std::vector<SnapshotPartition> partition_table;
  std::vector<RankingId> partition_members;
  if (partitioning != nullptr) {
    partition_table.reserve(partitioning->partitions.size());
    partition_members.reserve(partitioning->total_members());
    for (const Partition& partition : partitioning->partitions) {
      partition_members.insert(partition_members.end(),
                               partition.members.begin(),
                               partition.members.end());
      partition_table.push_back({partition.medoid, 0, partition.radius,
                                 partition_members.size()});
    }
    Status valid = ValidatePartitionSections(partition_table,
                                             partition_members, store.size());
    if (!valid.ok()) return valid;
  }
  const std::span<const ItemId> items = store.flat_items();
  const std::span<const ItemId> sorted_items = store.flat_sorted_items();
  const std::span<const Rank> sorted_ranks = store.flat_sorted_ranks();
  const std::span<const CompressedListMeta> list_metas = arena.list_metas();
  const std::span<const CompressedBlockMeta> block_metas =
      arena.block_metas();
  const std::span<const RankingId> inline_entries = arena.inline_entries();
  const std::span<const uint8_t> byte_stream = arena.byte_stream();

  const SectionPayload payloads[kSnapshotSectionCount] = {
      {SnapshotSection::kItems, items.data(), items.size_bytes()},
      {SnapshotSection::kSortedItems, sorted_items.data(),
       sorted_items.size_bytes()},
      {SnapshotSection::kSortedRanks, sorted_ranks.data(),
       sorted_ranks.size_bytes()},
      {SnapshotSection::kListMetas, list_metas.data(),
       list_metas.size_bytes()},
      {SnapshotSection::kBlockMetas, block_metas.data(),
       block_metas.size_bytes()},
      {SnapshotSection::kInlineEntries, inline_entries.data(),
       inline_entries.size_bytes()},
      {SnapshotSection::kByteStream, byte_stream.data(),
       byte_stream.size_bytes()},
      {SnapshotSection::kPartitions, partition_table.data(),
       partition_table.size() * sizeof(SnapshotPartition)},
      {SnapshotSection::kPartitionMembers, partition_members.data(),
       partition_members.size() * sizeof(RankingId)},
  };

  SnapshotSection table[kSnapshotSectionCount] = {};
  size_t offset = PageAlign(sizeof(SnapshotHeader) + sizeof(table));
  for (uint32_t s = 0; s < kSnapshotSectionCount; ++s) {
    table[s].id = payloads[s].id;
    table[s].reserved = 0;
    table[s].offset = offset;
    table[s].size = payloads[s].size;
    table[s].checksum = SnapshotChecksum(payloads[s].data, payloads[s].size);
    offset = PageAlign(offset + payloads[s].size);
  }

  SnapshotHeader header = {};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.section_count = kSnapshotSectionCount;
  header.byte_order = kSnapshotByteOrder;
  header.layout = kSnapshotLayout;
  header.k = store.k();
  header.max_item = store.max_item();
  header.num_rankings = store.size();
  header.num_arena_entries = arena.num_entries();
  header.num_partitions = partition_table.size();
  header.directory_checksum = SnapshotChecksum(table, sizeof(table));

  // Crash-safe protocol: write everything to `path`.tmp, fsync the file,
  // atomically rename over the final name, then fsync the parent
  // directory so the rename itself survives power loss. A SIGKILL at any
  // injected point below leaves either the previous file intact or the
  // complete new one — never a torn final file; leftover .tmp files are
  // swept by SnapshotManager's startup scan (storage_crash_test proves
  // recovery at every one of these failpoints). Injected failures set
  // errno = EIO so they take the exact annotation path a real kernel
  // error takes.
  const std::string tmp_path = path + ".tmp";
  const auto fail = [&tmp_path](Status status) {
    ::unlink(tmp_path.c_str());  // syscall-ok: best-effort cleanup
    return status;
  };

  FileCloser out(std::fopen(tmp_path.c_str(), "wb"));
  const bool open_failed = TOPK_FAILPOINT("storage.snapshot.open")
                               ? (errno = EIO, true)
                               : out.file == nullptr;
  if (open_failed) {
    return fail(Status::IOErrorFromErrno("open " + tmp_path, errno));
  }
  const size_t preamble = sizeof(header) + sizeof(table);
  bool ok = std::fwrite(&header, 1, sizeof(header), out.file) ==
                sizeof(header) &&
            std::fwrite(table, 1, sizeof(table), out.file) == sizeof(table) &&
            WritePadded(out.file, nullptr, 0, PageAlign(preamble) - preamble);
  for (uint32_t s = 0; ok && s < kSnapshotSectionCount; ++s) {
    if (TOPK_FAILPOINT("storage.snapshot.write")) {
      errno = EIO;
      ok = false;
      break;
    }
    const size_t padded = (s + 1 < kSnapshotSectionCount
                               ? table[s + 1].offset
                               : PageAlign(table[s].offset + table[s].size)) -
                          table[s].offset;
    ok = WritePadded(out.file, payloads[s].data, payloads[s].size, padded);
  }
  if (!ok || std::fflush(out.file) != 0) {
    return fail(Status::IOErrorFromErrno("write " + tmp_path, errno));
  }
  const bool fsync_failed = TOPK_FAILPOINT("storage.snapshot.fsync")
                                ? (errno = EIO, true)
                                : ::fsync(::fileno(out.file)) != 0;
  if (fsync_failed) {
    return fail(Status::IOErrorFromErrno("fsync " + tmp_path, errno));
  }
  {
    std::FILE* file = out.file;
    out.file = nullptr;  // the explicit close below owns it now
    if (std::fclose(file) != 0) {
      return fail(Status::IOErrorFromErrno("close " + tmp_path, errno));
    }
  }
  const bool rename_failed =
      TOPK_FAILPOINT("storage.snapshot.rename")
          ? (errno = EIO, true)
          : std::rename(tmp_path.c_str(), path.c_str()) != 0;
  if (rename_failed) {
    return fail(
        Status::IOErrorFromErrno("rename " + tmp_path + " -> " + path,
                                 errno));
  }
  // Durability of the rename needs the directory entry flushed too.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IOErrorFromErrno("open directory " + dir, errno);
  }
  const bool dirsync_failed = TOPK_FAILPOINT("storage.snapshot.dirsync")
                                  ? (errno = EIO, true)
                                  : ::fsync(dir_fd) != 0;
  const int dirsync_errno = errno;
  ::close(dir_fd);  // syscall-ok: read-only directory handle
  if (dirsync_failed) {
    return Status::IOErrorFromErrno("fsync directory " + dir, dirsync_errno);
  }
  return Status::OK();
}

/// RAII mmap of a whole file, read-only.
class StoreSnapshot::Mapping {
 public:
  static Result<std::shared_ptr<Mapping>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      const int err = errno;
      if (err == ENOENT) {
        return Status::NotFound("cannot open snapshot: " + path);
      }
      return Status::IOErrorFromErrno("open snapshot " + path, err);
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);  // syscall-ok: error-path cleanup
      return Status::IOErrorFromErrno("stat snapshot " + path, err);
    }
    if (st.st_size < 0) {
      ::close(fd);  // syscall-ok: error-path cleanup
      return Status::InvalidArgument("cannot stat snapshot: " + path);
    }
    const auto size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);  // syscall-ok: error-path cleanup
      return Status::InvalidArgument("snapshot file is empty: " + path);
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    int err = errno;
    ::close(fd);  // syscall-ok: the mapping keeps its own reference
    if (TOPK_FAILPOINT("storage.snapshot.mmap") && base != MAP_FAILED) {
      // The degraded-read path treats an injected mmap failure exactly
      // like ENOMEM from the kernel: unwind and report.
      ::munmap(base, size);  // syscall-ok: unwinding the injected failure
      base = MAP_FAILED;
      err = EIO;
    }
    if (base == MAP_FAILED) {
      return Status::IOErrorFromErrno("mmap snapshot " + path, err);
    }
    // Posting access at query time is random by item id; default mmap
    // readahead would fault megabytes around every touched page and
    // defeat the larger-than-RAM story (and the residency evidence).
    // Best-effort: a kernel that rejects the hint just reads ahead.
    ::madvise(base, size, MADV_RANDOM);  // syscall-ok: best-effort hint
    return std::make_shared<Mapping>(static_cast<const uint8_t*>(base), size);
  }

  Mapping(const uint8_t* base, size_t size) : base_(base), size_(size) {}
  ~Mapping() {
    ::munmap(const_cast<uint8_t*>(base_), size_);  // syscall-ok: destructor
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const uint8_t* base() const { return base_; }
  size_t size() const { return size_; }

  size_t ResidentBytes() const {
#ifdef __linux__
    const size_t pages = (size_ + kSnapshotPageSize - 1) / kSnapshotPageSize;
    std::vector<unsigned char> residency(pages);
    if (::mincore(const_cast<uint8_t*>(base_), size_, residency.data()) !=
        0) {
      return 0;
    }
    size_t resident = 0;
    for (const unsigned char page : residency) {
      if ((page & 1u) != 0) ++resident;
    }
    return resident * kSnapshotPageSize;
#else
    return 0;
#endif
  }

 private:
  const uint8_t* base_;
  size_t size_;
};

size_t StoreSnapshot::mapped_bytes() const { return mapping_->size(); }

size_t StoreSnapshot::ResidentBytes() const {
  return mapping_->ResidentBytes();
}

namespace {

/// Validated view of one mapped section.
template <typename T>
Result<std::span<const T>> SectionSpan(const uint8_t* base, size_t file_size,
                                       const SnapshotSection& section,
                                       uint32_t expected_id) {
  if (section.id != expected_id || section.reserved != 0) {
    return Status::InvalidArgument("snapshot section table id mismatch");
  }
  if ((section.offset % kSnapshotPageSize) != 0) {
    return Status::InvalidArgument("snapshot section offset misaligned");
  }
  if (section.offset > file_size ||
      section.size > file_size - section.offset) {
    return Status::InvalidArgument("snapshot section outside the file");
  }
  if ((section.size % sizeof(T)) != 0) {
    return Status::InvalidArgument("snapshot section size not a multiple "
                                   "of its element size");
  }
  return std::span<const T>(
      reinterpret_cast<const T*>(base + section.offset),
      static_cast<size_t>(section.size / sizeof(T)));
}

}  // namespace

Result<StoreSnapshot> OpenStoreSnapshot(const std::string& path) {
  auto mapping_result = StoreSnapshot::Mapping::Open(path);
  if (!mapping_result.ok()) return mapping_result.status();
  std::shared_ptr<StoreSnapshot::Mapping> mapping =
      std::move(mapping_result).ValueOrDie();
  const uint8_t* base = mapping->base();
  const size_t file_size = mapping->size();

  if (file_size < sizeof(SnapshotHeader) +
                      kSnapshotSectionCount * sizeof(SnapshotSection)) {
    return Status::InvalidArgument("snapshot truncated before the header");
  }
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  Status header_status = ValidateHeader(header);
  if (!header_status.ok()) return header_status;
  SnapshotSection table[kSnapshotSectionCount];
  std::memcpy(table, base + sizeof(header), sizeof(table));
  if (SnapshotChecksum(table, sizeof(table)) != header.directory_checksum) {
    return Status::InvalidArgument("snapshot section table checksum "
                                   "mismatch");
  }

  auto items = SectionSpan<ItemId>(base, file_size, table[0],
                                   SnapshotSection::kItems);
  if (!items.ok()) return items.status();
  auto sorted_items = SectionSpan<ItemId>(base, file_size, table[1],
                                          SnapshotSection::kSortedItems);
  if (!sorted_items.ok()) return sorted_items.status();
  auto sorted_ranks = SectionSpan<Rank>(base, file_size, table[2],
                                        SnapshotSection::kSortedRanks);
  if (!sorted_ranks.ok()) return sorted_ranks.status();
  auto list_metas = SectionSpan<CompressedListMeta>(
      base, file_size, table[3], SnapshotSection::kListMetas);
  if (!list_metas.ok()) return list_metas.status();
  auto block_metas = SectionSpan<CompressedBlockMeta>(
      base, file_size, table[4], SnapshotSection::kBlockMetas);
  if (!block_metas.ok()) return block_metas.status();
  auto inline_entries = SectionSpan<RankingId>(
      base, file_size, table[5], SnapshotSection::kInlineEntries);
  if (!inline_entries.ok()) return inline_entries.status();
  auto byte_stream = SectionSpan<uint8_t>(base, file_size, table[6],
                                          SnapshotSection::kByteStream);
  if (!byte_stream.ok()) return byte_stream.status();
  auto partitions = SectionSpan<SnapshotPartition>(
      base, file_size, table[7], SnapshotSection::kPartitions);
  if (!partitions.ok()) return partitions.status();
  auto partition_members = SectionSpan<RankingId>(
      base, file_size, table[8], SnapshotSection::kPartitionMembers);
  if (!partition_members.ok()) return partition_members.status();

  // Overflow-safe n * k: a hostile header cannot wrap the cell count
  // into coincidental agreement with the section sizes.
  if (header.num_rankings > (UINT64_MAX / sizeof(ItemId)) / header.k) {
    return Status::InvalidArgument("snapshot ranking count implausibly "
                                   "large");
  }
  const uint64_t cells = header.num_rankings * header.k;
  if (items.value().size() != cells ||
      sorted_items.value().size() != cells ||
      sorted_ranks.value().size() != cells) {
    return Status::InvalidArgument("snapshot column sections do not match "
                                   "n * k");
  }
  if (list_metas.value().size() !=
      static_cast<size_t>(header.max_item) + 1) {
    return Status::InvalidArgument("snapshot list directory does not cover "
                                   "max_item");
  }

  auto arena = CompressedPostingArena<RankingId>::Adopt(
      list_metas.value(), block_metas.value(), inline_entries.value(),
      byte_stream.value());
  if (!arena.ok()) return arena.status();
  if (arena.value().num_entries() != header.num_arena_entries) {
    return Status::InvalidArgument("snapshot arena entry count mismatch");
  }
  RankingStore store = RankingStore::AdoptExternal(
      header.k, static_cast<size_t>(header.num_rankings), header.max_item,
      items.value().data(), sorted_items.value().data(),
      sorted_ranks.value().data());
  CompressedInvertedIndex index = CompressedInvertedIndex::FromParts(
      std::move(arena).ValueOrDie(),
      static_cast<size_t>(header.num_rankings));
  const StoreSnapshot::PartitionSections partition_sections{
      header.num_partitions, partitions.value(), partition_members.value(),
      table[7].checksum, table[8].checksum};
  return StoreSnapshot(std::move(mapping), std::move(store),
                       std::move(index), partition_sections);
}

Result<Partitioning> StoreSnapshot::ReadPartitioning() const {
  const PartitionSections& sections = partitions_;
  if (sections.declared_count == 0 && sections.table.empty() &&
      sections.members.empty()) {
    return Status::NotFound("snapshot holds no partitioning");
  }
  if (sections.declared_count != sections.table.size()) {
    return Status::InvalidArgument(
        "snapshot partition count disagrees with its table section");
  }
  // Copy first, then check the copy: the rules must hold for the bytes
  // the partitioning is built from, not for a page read earlier.
  const std::vector<SnapshotPartition> table(sections.table.begin(),
                                             sections.table.end());
  const std::vector<RankingId> members(sections.members.begin(),
                                       sections.members.end());
  if (SnapshotChecksum(table.data(), table.size() * sizeof(table[0])) !=
          sections.table_checksum ||
      SnapshotChecksum(members.data(), members.size() * sizeof(members[0])) !=
          sections.members_checksum) {
    return Status::InvalidArgument("snapshot partitioning checksum mismatch");
  }
  Status valid = ValidatePartitionSections(table, members, store_.size());
  if (!valid.ok()) return valid;
  Partitioning partitioning;
  partitioning.partitions.reserve(table.size());
  size_t begin = 0;
  for (const SnapshotPartition& record : table) {
    const auto end = static_cast<size_t>(record.members_end);
    Partition partition;
    partition.medoid = record.medoid;
    partition.radius = record.radius;
    partition.members.assign(members.begin() + static_cast<ptrdiff_t>(begin),
                             members.begin() + static_cast<ptrdiff_t>(end));
    partitioning.partitions.push_back(std::move(partition));
    begin = end;
  }
  return partitioning;
}

Status VerifySnapshotChecksums(const std::string& path) {
  FileCloser in(std::fopen(path.c_str(), "rb"));
  if (in.file == nullptr) {
    const int err = errno;
    if (err == ENOENT) {
      return Status::NotFound("cannot open snapshot: " + path);
    }
    return Status::IOErrorFromErrno("open snapshot " + path, err);
  }
  SnapshotHeader header;
  SnapshotSection table[kSnapshotSectionCount];
  if (std::fread(&header, 1, sizeof(header), in.file) != sizeof(header) ||
      std::fread(table, 1, sizeof(table), in.file) != sizeof(table)) {
    return Status::InvalidArgument("snapshot header unreadable: " + path);
  }
  Status header_status = ValidateHeader(header);
  if (!header_status.ok()) return header_status;
  if (SnapshotChecksum(table, sizeof(table)) != header.directory_checksum) {
    return Status::InvalidArgument("snapshot section table checksum "
                                   "mismatch");
  }
  std::vector<uint8_t> buffer(1 << 20);
  for (const SnapshotSection& section : table) {
    if (std::fseek(in.file, static_cast<long>(section.offset), SEEK_SET) !=
        0) {
      return Status::InvalidArgument("snapshot section unreadable");
    }
    uint64_t hash = kFnvOffset;
    uint64_t remaining = section.size;
    while (remaining > 0) {
      const size_t chunk = remaining < buffer.size()
                               ? static_cast<size_t>(remaining)
                               : buffer.size();
      if (std::fread(buffer.data(), 1, chunk, in.file) != chunk) {
        return Status::InvalidArgument("snapshot section truncated");
      }
      hash = FnvUpdate(hash, buffer.data(), chunk);
      remaining -= chunk;
    }
    if (hash != section.checksum) {
      return Status::InvalidArgument("snapshot section checksum mismatch "
                                     "(section id " +
                                     std::to_string(section.id) + ")");
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace topk
