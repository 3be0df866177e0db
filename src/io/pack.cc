#include "src/io/pack.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/util/check.h"

namespace segram::io
{

namespace
{

/** Section count per chromosome (Node/Char/Edge/Bucket/Min/Loc). */
constexpr uint32_t kSectionsPerChromosome = 6;

uint64_t
alignUp(uint64_t value)
{
    return (value + kPackAlign - 1) & ~(kPackAlign - 1);
}

template <typename T>
std::span<const std::byte>
asBytes(std::span<const T> values)
{
    return {reinterpret_cast<const std::byte *>(values.data()),
            values.size() * sizeof(T)};
}

} // namespace

uint64_t
packChecksum(std::span<const std::byte> bytes)
{
    // FNV-1a 64 folded over 8-byte words instead of single bytes:
    // same mixing recipe, 8x fewer sequential multiplies, so a full
    // checksum pass over the mapped tables stays well over an order of
    // magnitude cheaper than rebuilding them. Trailing bytes are
    // zero-padded into the last word; the length is mixed in at the
    // end so packs differing only by a zero tail do not collide.
    uint64_t hash = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes.data() + i, 8);
        hash = (hash ^ word) * kPrime;
    }
    uint64_t tail = 0;
    if (i < bytes.size())
        std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    hash = (hash ^ tail) * kPrime;
    return (hash ^ bytes.size()) * kPrime;
}

// --------------------------------------------------------------- codec

std::span<const graph::NodeRecord>
PackCodec::nodeTable(const graph::GenomeGraph &graph)
{
    return graph.nodes_.span();
}

std::span<const graph::NodeId>
PackCodec::edgeTable(const graph::GenomeGraph &graph)
{
    return graph.edges_.span();
}

std::span<const uint64_t>
PackCodec::charWords(const graph::GenomeGraph &graph)
{
    return graph.chars_.words_.span();
}

std::span<const uint32_t>
PackCodec::bucketTable(const index::MinimizerIndex &index)
{
    return index.bucket_offsets_.span();
}

std::span<const index::MinimizerEntry>
PackCodec::minimizerTable(const index::MinimizerIndex &index)
{
    return index.minimizers_.span();
}

std::span<const index::SeedLocation>
PackCodec::locationTable(const index::MinimizerIndex &index)
{
    return index.locations_.span();
}

graph::GenomeGraph
PackCodec::makeGraph(std::span<const graph::NodeRecord> nodes,
                     std::span<const uint64_t> char_words,
                     uint64_t num_bases,
                     std::span<const graph::NodeId> edges)
{
    graph::GenomeGraph out;
    out.nodes_ = util::TableStorage<graph::NodeRecord>::borrow(nodes);
    out.edges_ = util::TableStorage<graph::NodeId>::borrow(edges);
    out.chars_.words_ = util::TableStorage<uint64_t>::borrow(char_words);
    out.chars_.size_ = num_bases;
    return out;
}

index::MinimizerIndex
PackCodec::makeIndex(const PackChromMeta &meta,
                     std::span<const uint32_t> buckets,
                     std::span<const index::MinimizerEntry> minimizers,
                     std::span<const index::SeedLocation> locations)
{
    index::MinimizerIndex out;
    out.sketch_.k = static_cast<int>(meta.sketchK);
    out.sketch_.w = static_cast<int>(meta.sketchW);
    out.bucket_bits_ = static_cast<int>(meta.bucketBits);
    out.freq_threshold_ = meta.freqThreshold;
    out.discard_top_fraction_ = meta.discardTopFraction;
    out.bucket_offsets_ = util::TableStorage<uint32_t>::borrow(buckets);
    out.minimizers_ =
        util::TableStorage<index::MinimizerEntry>::borrow(minimizers);
    out.locations_ =
        util::TableStorage<index::SeedLocation>::borrow(locations);

    // The stats block is reconstructed to be bit-identical with what
    // MinimizerIndex::build() computed (the maxima travel in the meta;
    // the byte footprints are the Fig. 7 formulas).
    index::IndexStats &stats = out.stats_;
    stats.numDistinctMinimizers = minimizers.size();
    stats.numLocations = locations.size();
    stats.maxMinimizersPerBucket = meta.maxMinimizersPerBucket;
    stats.maxLocationsPerMinimizer = meta.maxLocationsPerMinimizer;
    stats.firstLevelBytes = (uint64_t{1} << meta.bucketBits) * 4;
    stats.secondLevelBytes = stats.numDistinctMinimizers * 12;
    stats.thirdLevelBytes = stats.numLocations * 8;
    return out;
}

// -------------------------------------------------------------- writer

void
writePack(const std::string &path, std::span<const PackWriteEntry> entries,
          uint32_t version)
{
    SEGRAM_CHECK(version >= kPackMinVersion && version <= kPackVersion,
                 "unsupported pack version " + std::to_string(version));
    SEGRAM_CHECK(!entries.empty(), "cannot write a pack with no chromosomes");
    for (const auto &entry : entries) {
        SEGRAM_CHECK(entry.graph != nullptr && entry.index != nullptr,
                     "pack entry for '" + std::string(entry.name) +
                         "' has a null graph or index");
        SEGRAM_CHECK(!entry.name.empty(),
                     "pack chromosome names must be non-empty");
    }

    // Assemble the two global payloads.
    std::string names;
    std::vector<PackChromMeta> metas(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
        const auto &entry = entries[i];
        const auto &stats = entry.index->stats();
        PackChromMeta &meta = metas[i];
        meta.nameOffset = names.size();
        meta.nameLen = static_cast<uint32_t>(entry.name.size());
        names.append(entry.name);
        meta.bucketBits = static_cast<uint32_t>(entry.index->bucketBits());
        meta.numNodes = entry.graph->numNodes();
        meta.numEdges = entry.graph->numEdges();
        meta.numBases = entry.graph->totalSeqLen();
        meta.numMinimizers = stats.numDistinctMinimizers;
        meta.numLocations = stats.numLocations;
        meta.sketchK = static_cast<uint32_t>(entry.index->sketch().k);
        meta.sketchW = static_cast<uint32_t>(entry.index->sketch().w);
        meta.freqThreshold = entry.index->frequencyThreshold();
        meta.maxMinimizersPerBucket = stats.maxMinimizersPerBucket;
        meta.maxLocationsPerMinimizer = stats.maxLocationsPerMinimizer;
        meta.discardTopFraction = entry.index->discardTopFraction();
    }

    // Plan every section in file order.
    struct Plan
    {
        PackSectionKind kind;
        uint32_t chromosome;
        std::span<const std::byte> payload;
    };
    std::vector<Plan> plans;
    plans.push_back({PackSectionKind::ChromMeta, kPackGlobalSection,
                     asBytes(std::span<const PackChromMeta>(metas))});
    plans.push_back(
        {PackSectionKind::Names, kPackGlobalSection,
         {reinterpret_cast<const std::byte *>(names.data()), names.size()}});
    // The shard table's *contents* (byte extents) depend on the layout
    // computed below, so plan it with a placeholder payload now and
    // fill the records in before checksumming.
    std::vector<PackShardInfo> shard_infos(entries.size());
    if (version >= 2) {
        plans.push_back(
            {PackSectionKind::ShardTable, kPackGlobalSection,
             asBytes(std::span<const PackShardInfo>(shard_infos))});
    }
    const size_t global_sections = plans.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        const auto chrom = static_cast<uint32_t>(i);
        const auto &entry = entries[i];
        plans.push_back({PackSectionKind::NodeTable, chrom,
                         asBytes(PackCodec::nodeTable(*entry.graph))});
        plans.push_back({PackSectionKind::CharTable, chrom,
                         asBytes(PackCodec::charWords(*entry.graph))});
        plans.push_back({PackSectionKind::EdgeTable, chrom,
                         asBytes(PackCodec::edgeTable(*entry.graph))});
        plans.push_back({PackSectionKind::BucketTable, chrom,
                         asBytes(PackCodec::bucketTable(*entry.index))});
        plans.push_back({PackSectionKind::MinimizerTable, chrom,
                         asBytes(PackCodec::minimizerTable(*entry.index))});
        plans.push_back({PackSectionKind::LocationTable, chrom,
                         asBytes(PackCodec::locationTable(*entry.index))});
    }

    // Lay out offsets first (checksums wait until the shard table is
    // filled in, since its payload derives from this very layout).
    std::vector<PackSectionEntry> directory(plans.size());
    uint64_t cursor = alignUp(sizeof(PackHeader) +
                              plans.size() * sizeof(PackSectionEntry));
    for (size_t i = 0; i < plans.size(); ++i) {
        directory[i].kind = static_cast<uint32_t>(plans[i].kind);
        directory[i].chromosome = plans[i].chromosome;
        directory[i].offset = cursor;
        directory[i].bytes = plans[i].payload.size();
        cursor = alignUp(cursor + plans[i].payload.size());
    }

    // A chromosome's six sections are contiguous in file order; its
    // shard extent runs from its first section to the start of the
    // next chromosome's (or end of file).
    for (size_t c = 0; c < entries.size(); ++c) {
        const size_t first = global_sections + c * kSectionsPerChromosome;
        PackShardInfo &info = shard_infos[c];
        info.byteStart = directory[first].offset;
        const auto &last = directory[first + kSectionsPerChromosome - 1];
        info.byteBytes = alignUp(last.offset + last.bytes) - info.byteStart;
        info.graphBytes = directory[first].bytes +
                          directory[first + 1].bytes +
                          directory[first + 2].bytes;
        info.indexBytes = directory[first + 3].bytes +
                          directory[first + 4].bytes +
                          directory[first + 5].bytes;
    }
    for (size_t i = 0; i < plans.size(); ++i)
        directory[i].checksum = packChecksum(plans[i].payload);

    PackHeader header = {};
    std::memcpy(header.magic, kPackMagic, sizeof(kPackMagic));
    header.version = version;
    header.endianTag = kPackEndianTag;
    header.fileBytes = cursor;
    header.sectionCount = static_cast<uint32_t>(plans.size());
    header.chromosomeCount = static_cast<uint32_t>(entries.size());
    header.nodeRecordBytes = sizeof(graph::NodeRecord);
    header.sectionEntryBytes = sizeof(PackSectionEntry);
    header.directoryChecksum = packChecksum(
        asBytes(std::span<const PackSectionEntry>(directory)));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SEGRAM_CHECK(out.good(), "cannot open '" + path + "' for writing");
    uint64_t written = 0;
    const auto put = [&](const void *data, uint64_t bytes) {
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(bytes));
        written += bytes;
    };
    const char zeros[kPackAlign] = {};
    const auto padTo = [&](uint64_t offset) {
        while (written < offset)
            put(zeros, std::min<uint64_t>(offset - written, kPackAlign));
    };

    put(&header, sizeof(header));
    put(directory.data(), directory.size() * sizeof(PackSectionEntry));
    for (size_t i = 0; i < plans.size(); ++i) {
        padTo(directory[i].offset);
        put(plans[i].payload.data(), plans[i].payload.size());
    }
    padTo(header.fileBytes);
    out.flush();
    SEGRAM_CHECK(out.good(), "error while writing pack '" + path + "'");
}

// -------------------------------------------------------------- loader

/** RAII mmap of a whole file, with an aligned read() fallback. */
class PackFile::Mapping
{
  public:
    static std::unique_ptr<Mapping>
    map(const std::string &path, bool prefetch)
    {
        auto mapping = std::unique_ptr<Mapping>(new Mapping);
        const int fd = ::open(path.c_str(), O_RDONLY);
        SEGRAM_CHECK(fd >= 0, "cannot open pack '" + path + "'");
        struct stat st = {};
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            SEGRAM_CHECK(false, "cannot stat pack '" + path + "'");
        }
        mapping->size_ = static_cast<size_t>(st.st_size);
        if (mapping->size_ > 0) {
            void *addr = ::mmap(nullptr, mapping->size_, PROT_READ,
                                MAP_PRIVATE, fd, 0);
            if (addr != MAP_FAILED) {
                mapping->addr_ = addr;
                // Ask the kernel to fault the tables in ahead of the
                // first queries (the paper's "resident in memory"
                // model); best-effort, failure is harmless. A
                // memory-budget (cold) load skips it: residency is
                // driven shard by shard instead.
                if (prefetch)
                    (void)::madvise(addr, mapping->size_, MADV_WILLNEED);
            } else if (!mapping->readFallback(fd)) {
                ::close(fd);
                SEGRAM_CHECK(false, "cannot mmap or read pack '" + path +
                                        "'");
            }
        }
        ::close(fd);
        return mapping;
    }

    std::span<const std::byte>
    bytes() const
    {
        const void *base = addr_ != nullptr ? addr_ : fallback_.get();
        return {static_cast<const std::byte *>(base), size_};
    }

    /**
     * madvise(WILLNEED/DONTNEED) over the page-aligned cover of
     * [offset, offset+bytes). DONTNEED shrinks to the *interior* whole
     * pages so boundary pages shared with a neighbouring extent are
     * never dropped behind its back; WILLNEED expands outward. No-op
     * on the read() fallback (heap memory has no backing file to
     * refault from).
     */
    void
    advise(uint64_t offset, uint64_t bytes, bool resident) const
    {
        if (addr_ == nullptr || bytes == 0 || offset >= size_)
            return;
        static const uint64_t page =
            static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
        uint64_t begin = offset;
        uint64_t end = std::min<uint64_t>(offset + bytes, size_);
        if (resident) {
            begin = begin & ~(page - 1);
            end = std::min<uint64_t>((end + page - 1) & ~(page - 1),
                                     size_);
        } else {
            begin = (begin + page - 1) & ~(page - 1);
            end = end & ~(page - 1);
        }
        if (begin >= end)
            return;
        (void)::madvise(static_cast<char *>(addr_) + begin, end - begin,
                        resident ? MADV_WILLNEED : MADV_DONTNEED);
    }

    ~Mapping()
    {
        if (addr_ != nullptr)
            ::munmap(addr_, size_);
    }

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

  private:
    Mapping() = default;

    bool
    readFallback(int fd)
    {
        // kPackAlign-aligned heap copy so reinterpreted table spans
        // keep the same alignment guarantees as the mmap path.
        fallback_.reset(static_cast<std::byte *>(
            std::aligned_alloc(kPackAlign, alignUp(size_))));
        if (fallback_ == nullptr)
            return false;
        size_t done = 0;
        while (done < size_) {
            const ssize_t got =
                ::pread(fd, fallback_.get() + done, size_ - done, done);
            if (got <= 0)
                return false;
            done += static_cast<size_t>(got);
        }
        return true;
    }

    struct FreeDeleter
    {
        void operator()(std::byte *p) const { std::free(p); }
    };

    void *addr_ = nullptr;
    std::unique_ptr<std::byte, FreeDeleter> fallback_;
    size_t size_ = 0;
};

PackFile::PackFile(PackFile &&) noexcept = default;
PackFile &PackFile::operator=(PackFile &&) noexcept = default;
PackFile::~PackFile() = default;

uint64_t
PackFile::fileBytes() const
{
    return mapping_->bytes().size();
}

void
PackFile::adviseShard(size_t i, bool resident) const
{
    const PackShardInfo &info = shards_[i];
    mapping_->advise(info.byteStart, info.byteBytes, resident);
}

void
PackFile::adviseAll(bool resident) const
{
    mapping_->advise(0, mapping_->bytes().size(), resident);
}

bool
isPackFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return false;
    char magic[sizeof(kPackMagic)] = {};
    const size_t got = std::fread(magic, 1, sizeof(magic), file);
    std::fclose(file);
    return got == sizeof(magic) &&
           std::memcmp(magic, kPackMagic, sizeof(magic)) == 0;
}

namespace
{

/** Validation helper: every failure names the offending pack. */
#define SEGRAM_PACK_CHECK(cond, path, what)                                 \
    SEGRAM_CHECK(cond, "invalid pack '" + (path) + "': " + (what))

template <typename T>
std::span<const T>
sectionSpan(std::span<const std::byte> file, const PackSectionEntry &entry)
{
    // Bounds and alignment were validated before this is called.
    return {reinterpret_cast<const T *>(file.data() + entry.offset),
            static_cast<size_t>(entry.bytes / sizeof(T))};
}

} // namespace

PackFile
PackFile::open(const std::string &path, const PackLoadOptions &options)
{
    PackFile pack;
    auto step_start = std::chrono::steady_clock::now();
    const auto step_seconds = [&step_start] {
        const auto now = std::chrono::steady_clock::now();
        const double sec =
            std::chrono::duration<double>(now - step_start).count();
        step_start = now;
        return sec;
    };
    pack.mapping_ = Mapping::map(path, /*prefetch=*/!options.coldLoad);
    pack.openTimes_.mapSec = step_seconds();
    const std::span<const std::byte> file = pack.mapping_->bytes();

    // --- header ---
    SEGRAM_PACK_CHECK(file.size() >= sizeof(PackHeader), path,
                      "file shorter than the 64-byte header");
    PackHeader header;
    std::memcpy(&header, file.data(), sizeof(header));
    SEGRAM_PACK_CHECK(
        std::memcmp(header.magic, kPackMagic, sizeof(kPackMagic)) == 0,
        path, "bad magic (not a .segram pack)");
    SEGRAM_PACK_CHECK(header.endianTag == kPackEndianTag, path,
                      "endianness mismatch (pack written on a "
                      "different-endian host)");
    SEGRAM_PACK_CHECK(header.version >= kPackMinVersion &&
                          header.version <= kPackVersion,
                      path,
                      "pack version " + std::to_string(header.version) +
                          " outside supported range [" +
                          std::to_string(kPackMinVersion) + ", " +
                          std::to_string(kPackVersion) + "]");
    pack.version_ = header.version;
    SEGRAM_PACK_CHECK(header.nodeRecordBytes == sizeof(graph::NodeRecord),
                      path, "node record size mismatch");
    SEGRAM_PACK_CHECK(header.sectionEntryBytes == sizeof(PackSectionEntry),
                      path, "section entry size mismatch");
    SEGRAM_PACK_CHECK(header.fileBytes == file.size(), path,
                      "recorded file size " +
                          std::to_string(header.fileBytes) +
                          " != actual size " + std::to_string(file.size()));
    SEGRAM_PACK_CHECK(header.chromosomeCount >= 1, path,
                      "pack holds no chromosomes");

    // --- section directory ---
    const uint64_t dir_bytes =
        uint64_t{header.sectionCount} * sizeof(PackSectionEntry);
    SEGRAM_PACK_CHECK(sizeof(PackHeader) + dir_bytes <= file.size(), path,
                      "section directory extends past end of file");
    std::vector<PackSectionEntry> directory(header.sectionCount);
    std::memcpy(directory.data(), file.data() + sizeof(PackHeader),
                dir_bytes);
    SEGRAM_PACK_CHECK(
        packChecksum(asBytes(
            std::span<const PackSectionEntry>(directory))) ==
            header.directoryChecksum,
        path, "section directory checksum mismatch");
    // v1 packs have two global sections (ChromMeta + Names); v2 adds
    // the ShardTable.
    const uint32_t global_sections = header.version >= 2 ? 3 : 2;
    SEGRAM_PACK_CHECK(
        header.sectionCount ==
            global_sections +
                kSectionsPerChromosome * header.chromosomeCount,
        path, "unexpected section count");

    for (const auto &entry : directory) {
        SEGRAM_PACK_CHECK(entry.offset % kPackAlign == 0, path,
                          "misaligned section payload");
        SEGRAM_PACK_CHECK(entry.offset >= sizeof(PackHeader) + dir_bytes &&
                              entry.offset <= file.size() &&
                              entry.bytes <= file.size() - entry.offset,
                          path, "section payload out of file bounds");
        if (options.verifyChecksums) {
            step_seconds();
            SEGRAM_PACK_CHECK(
                packChecksum(file.subspan(entry.offset, entry.bytes)) ==
                    entry.checksum,
                path, "section payload checksum mismatch");
            pack.openTimes_.checksumSec += step_seconds();
            // A cold load keeps validation RSS near one section: drop
            // each payload's pages as soon as they are checksummed
            // (table validation below refaults what it needs).
            if (options.coldLoad)
                pack.mapping_->advise(entry.offset, entry.bytes, false);
        }
    }

    // --- section inventory ---
    const auto findSection = [&](PackSectionKind kind,
                                 uint32_t chromosome)
        -> const PackSectionEntry & {
        const PackSectionEntry *found = nullptr;
        for (const auto &entry : directory) {
            if (entry.kind == static_cast<uint32_t>(kind) &&
                entry.chromosome == chromosome) {
                SEGRAM_PACK_CHECK(found == nullptr, path,
                                  "duplicate section");
                found = &entry;
            }
        }
        SEGRAM_PACK_CHECK(found != nullptr, path,
                          "missing section (kind " +
                              std::to_string(static_cast<uint32_t>(kind)) +
                              ")");
        return *found;
    };

    const PackSectionEntry &meta_section =
        findSection(PackSectionKind::ChromMeta, kPackGlobalSection);
    SEGRAM_PACK_CHECK(meta_section.bytes ==
                          uint64_t{header.chromosomeCount} *
                              sizeof(PackChromMeta),
                      path, "chromosome metadata size mismatch");
    const PackSectionEntry &names_section =
        findSection(PackSectionKind::Names, kPackGlobalSection);

    std::vector<PackChromMeta> metas(header.chromosomeCount);
    std::memcpy(metas.data(), file.data() + meta_section.offset,
                meta_section.bytes);

    // --- per-chromosome tables ---
    for (uint32_t c = 0; c < header.chromosomeCount; ++c) {
        const PackChromMeta &meta = metas[c];
        SEGRAM_PACK_CHECK(meta.nameLen >= 1 &&
                              meta.nameOffset <= names_section.bytes &&
                              meta.nameLen <=
                                  names_section.bytes - meta.nameOffset,
                          path, "chromosome name out of bounds");
        SEGRAM_PACK_CHECK(meta.bucketBits >= 1 && meta.bucketBits <= 32,
                          path, "bucketBits out of [1, 32]");
        SEGRAM_PACK_CHECK(meta.sketchK >= 1 && meta.sketchK <= 31 &&
                              meta.sketchW >= 1,
                          path, "invalid sketch parameters");
        SEGRAM_PACK_CHECK(meta.numNodes <= UINT32_MAX &&
                              meta.numEdges <= UINT32_MAX &&
                              meta.numMinimizers <= UINT32_MAX &&
                              meta.numLocations <= UINT32_MAX,
                          path, "table count exceeds 32-bit id space");

        const PackSectionEntry &nodes_s =
            findSection(PackSectionKind::NodeTable, c);
        const PackSectionEntry &chars_s =
            findSection(PackSectionKind::CharTable, c);
        const PackSectionEntry &edges_s =
            findSection(PackSectionKind::EdgeTable, c);
        const PackSectionEntry &buckets_s =
            findSection(PackSectionKind::BucketTable, c);
        const PackSectionEntry &mins_s =
            findSection(PackSectionKind::MinimizerTable, c);
        const PackSectionEntry &locs_s =
            findSection(PackSectionKind::LocationTable, c);

        // Shard extent: the contiguous byte range covering this
        // chromosome's six sections, derived from the directory (the
        // authoritative layout) so v1 packs get extents too.
        {
            const PackSectionEntry *sections[] = {&nodes_s,  &chars_s,
                                                  &edges_s,  &buckets_s,
                                                  &mins_s,   &locs_s};
            PackShardInfo info = {};
            info.byteStart = UINT64_MAX;
            uint64_t end = 0;
            for (const PackSectionEntry *s : sections) {
                info.byteStart = std::min(info.byteStart, s->offset);
                end = std::max(end, alignUp(s->offset + s->bytes));
            }
            info.byteBytes = std::min<uint64_t>(end, file.size()) -
                             info.byteStart;
            info.graphBytes =
                nodes_s.bytes + chars_s.bytes + edges_s.bytes;
            info.indexBytes =
                buckets_s.bytes + mins_s.bytes + locs_s.bytes;
            pack.shards_.push_back(info);
        }

        // Overflow-safe ceil(numBases / 32): a hostile numBases near
        // 2^64 must inflate the expected CharTable size (and fail the
        // size check below), not wrap it to zero.
        const uint64_t char_words =
            meta.numBases / 32 + (meta.numBases % 32 != 0 ? 1 : 0);
        SEGRAM_PACK_CHECK(
            nodes_s.bytes == meta.numNodes * sizeof(graph::NodeRecord) &&
                chars_s.bytes == char_words * sizeof(uint64_t) &&
                edges_s.bytes == meta.numEdges * sizeof(graph::NodeId) &&
                buckets_s.bytes ==
                    ((uint64_t{1} << meta.bucketBits) + 1) *
                        sizeof(uint32_t) &&
                mins_s.bytes ==
                    meta.numMinimizers * sizeof(index::MinimizerEntry) &&
                locs_s.bytes ==
                    meta.numLocations * sizeof(index::SeedLocation),
            path, "table section size disagrees with metadata counts");

        const auto nodes = sectionSpan<graph::NodeRecord>(file, nodes_s);
        const auto words = sectionSpan<uint64_t>(file, chars_s);
        const auto edges = sectionSpan<graph::NodeId>(file, edges_s);
        const auto buckets = sectionSpan<uint32_t>(file, buckets_s);
        const auto minimizers =
            sectionSpan<index::MinimizerEntry>(file, mins_s);
        const auto locations =
            sectionSpan<index::SeedLocation>(file, locs_s);

        if (options.validateTables) {
            step_seconds();
            // Cross-table invariants: every index a query can follow
            // must land inside its target table *before* any span is
            // handed out, so a hostile or truncated-and-padded pack can
            // never turn into an out-of-bounds read later.
            uint64_t expected_start = 0;
            for (const auto &node : nodes) {
                SEGRAM_PACK_CHECK(
                    node.seqLen >= 1 &&
                        node.seqStart <= meta.numBases &&
                        node.seqLen <= meta.numBases - node.seqStart,
                    path, "node sequence range outside character table");
                SEGRAM_PACK_CHECK(
                    node.edgeStart <= meta.numEdges &&
                        node.edgeCount <= meta.numEdges - node.edgeStart,
                    path, "node edge range outside edge table");
                // GraphBuilder lays nodes out contiguously from 0 with
                // linearOffset == seqStart; charAtLinear/nodeAtLinear
                // assume exactly that, so enforce it, not just
                // monotonicity.
                SEGRAM_PACK_CHECK(node.seqStart == expected_start &&
                                      node.linearOffset == node.seqStart,
                                  path,
                                  "node table is not contiguous from "
                                  "offset 0");
                expected_start = node.seqStart + node.seqLen;
            }
            SEGRAM_PACK_CHECK(expected_start == meta.numBases, path,
                              "node table does not cover the character "
                              "table");
            for (const graph::NodeId target : edges)
                SEGRAM_PACK_CHECK(target < meta.numNodes, path,
                                  "edge target outside node table");
            uint32_t prev_bucket = 0;
            for (const uint32_t offset : buckets) {
                SEGRAM_PACK_CHECK(offset >= prev_bucket &&
                                      offset <= meta.numMinimizers,
                                  path, "bucket offsets not a CSR");
                prev_bucket = offset;
            }
            SEGRAM_PACK_CHECK(buckets.back() == meta.numMinimizers, path,
                              "bucket offsets do not cover level 2");
            for (const auto &entry : minimizers) {
                SEGRAM_PACK_CHECK(
                    entry.locCount >= 1 &&
                        entry.locStart <= meta.numLocations &&
                        entry.locCount <=
                            meta.numLocations - entry.locStart,
                    path, "minimizer location range outside level 3");
            }
            for (const auto &loc : locations) {
                SEGRAM_PACK_CHECK(loc.node < meta.numNodes &&
                                      loc.offset <
                                          nodes[loc.node].seqLen,
                                  path,
                                  "seed location outside its node");
            }
            pack.openTimes_.validateSec += step_seconds();
        }

        Chromosome chromosome;
        chromosome.name.assign(
            reinterpret_cast<const char *>(file.data()) +
                names_section.offset + meta.nameOffset,
            meta.nameLen);
        chromosome.graph =
            PackCodec::makeGraph(nodes, words, meta.numBases, edges);
        chromosome.index =
            PackCodec::makeIndex(meta, buckets, minimizers, locations);
        pack.chromosomes_.push_back(std::move(chromosome));

        if (options.coldLoad)
            pack.adviseShard(c, false);
    }

    // A v2 pack's stored shard table must agree with the extents
    // derived from the directory above.
    if (header.version >= 2) {
        const PackSectionEntry &shards_section =
            findSection(PackSectionKind::ShardTable, kPackGlobalSection);
        SEGRAM_PACK_CHECK(shards_section.bytes ==
                              uint64_t{header.chromosomeCount} *
                                  sizeof(PackShardInfo),
                          path, "shard table size mismatch");
        std::vector<PackShardInfo> stored(header.chromosomeCount);
        std::memcpy(stored.data(), file.data() + shards_section.offset,
                    shards_section.bytes);
        for (uint32_t c = 0; c < header.chromosomeCount; ++c) {
            SEGRAM_PACK_CHECK(stored[c] == pack.shards_[c], path,
                              "shard table disagrees with the section "
                              "directory");
        }
    }
    return pack;
}

} // namespace segram::io
