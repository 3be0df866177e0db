/**
 * @file
 * The hash-table-based index of the genome graph (paper Section 5,
 * Fig. 6): the second pre-processing step.
 *
 * Three levels:
 *  1. *Buckets*  — 2^bucketBits entries of 4 B each; a bucket holds the
 *     span of its minimizers in level 2 (CSR offsets).
 *  2. *Minimizers* — 12 B per distinct minimizer: hash value plus the
 *     span of its seed locations in level 3; sorted by hash within each
 *     bucket so a query is one binary search.
 *  3. *Seed locations* — 8 B per occurrence: (node ID, offset) pairs,
 *     grouped per minimizer and sorted.
 *
 * The byte widths are modeled exactly so the Fig. 7 footprint sweep
 * reproduces; the in-memory C++ layout uses the same CSR structure.
 */

#ifndef SEGRAM_SRC_INDEX_MINIMIZER_INDEX_H
#define SEGRAM_SRC_INDEX_MINIMIZER_INDEX_H

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "src/graph/genome_graph.h"
#include "src/seed/minimizer.h"
#include "src/util/table_storage.h"

namespace segram::util
{
class ThreadPool;
} // namespace segram::util

namespace segram::index
{

/** Paper's empirically chosen first-level bucket count (Fig. 7). */
constexpr int kPaperBucketBits = 24;

/** One level-3 entry: an exact-match location of a minimizer. */
struct SeedLocation
{
    graph::NodeId node = 0; ///< graph node holding the occurrence
    uint32_t offset = 0;    ///< character offset within the node

    bool operator==(const SeedLocation &) const = default;
    auto operator<=>(const SeedLocation &) const = default;
};

static_assert(sizeof(SeedLocation) == 8 &&
                  std::is_trivially_copyable_v<SeedLocation>,
              "SeedLocation is serialized raw into .segram packs");

/**
 * One level-2 entry: a distinct minimizer with the CSR span of its
 * level-3 locations. (The paper models 12 B here; in memory the hash is
 * padded to a 16 B record. Serialized raw into `.segram` packs.)
 */
struct MinimizerEntry
{
    uint64_t hash = 0;
    uint32_t locStart = 0;
    uint32_t locCount = 0;
};

static_assert(sizeof(MinimizerEntry) == 16 &&
                  std::is_trivially_copyable_v<MinimizerEntry>,
              "MinimizerEntry is serialized raw into .segram packs");

/** Index construction parameters. */
struct IndexConfig
{
    seed::SketchConfig sketch;  ///< minimizer k and w
    int bucketBits = 18;        ///< log2 of the first-level bucket count
                                ///< (2^24 in the paper; smaller default
                                ///< suits synthetic-scale genomes)
    /**
     * Fraction of most-frequent distinct minimizers whose occurrence
     * lists are ignored at query time (paper: top 0.02%).
     */
    double discardTopFraction = 0.0002;
};

/** Footprint and occupancy statistics (the Fig. 7 series). */
struct IndexStats
{
    uint64_t numDistinctMinimizers = 0;
    uint64_t numLocations = 0;
    uint64_t maxMinimizersPerBucket = 0;
    uint64_t maxLocationsPerMinimizer = 0;
    uint64_t firstLevelBytes = 0;  ///< buckets * 4 B
    uint64_t secondLevelBytes = 0; ///< distinct minimizers * 12 B
    uint64_t thirdLevelBytes = 0;  ///< locations * 8 B

    uint64_t
    totalBytes() const
    {
        return firstLevelBytes + secondLevelBytes + thirdLevelBytes;
    }
};

/** Wall seconds of the three steps of one MinimizerIndex::build. */
struct IndexBuildTimes
{
    double hitsSec = 0;   ///< sketching every node into (hash, location) hits
    double sortSec = 0;   ///< ordering the hits by (bucket, hash, location)
    double tablesSec = 0; ///< the three levels, threshold and statistics

    IndexBuildTimes &
    operator+=(const IndexBuildTimes &other)
    {
        hitsSec += other.hitsSec;
        sortSec += other.sortSec;
        tablesSec += other.tablesSec;
        return *this;
    }
};

/**
 * One minimizer occurrence: the unit the index build sorts. Trivially
 * default-constructible, so the build's hit buffers are first touched
 * by the parallel passes that fill them, not zeroed on one thread.
 */
struct IndexHit
{
    uint64_t hash;
    graph::NodeId node;
    uint32_t offset;

    bool operator==(const IndexHit &) const = default;
};

/**
 * Sorts @p hits into the index's level order, (bucket, hash,
 * location), given that they arrive in location order (as the build
 * collects them). The key is the hash rotated within its 2k-bit domain
 * so that its bucketBits low bits (the bucket) lead; when bucketBits
 * >= 2k the bucket is the whole hash and the key is the hash itself. A
 * stable radix on that key (util::radixSortStable) then keeps equal
 * hashes in location order without ever comparing locations.
 *
 * @param scratch Ping-pong buffer of at least hits.size() elements.
 * @param pool    Runs the radix passes when set; the caller must not
 *                be one of its workers.
 * @return The span, @p hits or the front of @p scratch, holding the
 *         sorted hits.
 */
std::span<IndexHit> sortHits(std::span<IndexHit> hits,
                             std::span<IndexHit> scratch,
                             const IndexConfig &config,
                             util::ThreadPool *pool = nullptr);

/**
 * Occurrence-frequency distribution of the distinct minimizers, for
 * data-driven cap tuning (`segram index --stats`). Built by
 * MinimizerIndex::occurrenceReport.
 */
struct OccurrenceReport
{
    /** One decile of distinct minimizers, ordered by frequency. */
    struct Decile
    {
        uint64_t minimizers = 0; ///< distinct minimizers in the decile
        uint32_t maxFrequency = 0; ///< largest occurrence count inside
        uint64_t locations = 0;  ///< total occurrences in the decile
    };

    /** One of the hottest (most frequent) minimizers. */
    struct HotSeed
    {
        uint64_t hash = 0;
        uint32_t frequency = 0;
    };

    /** Ten deciles, coldest first; empty when the index is empty. */
    std::vector<Decile> deciles;
    /** The hottest minimizers, most frequent first (at most `topN`). */
    std::vector<HotSeed> topSeeds;
    /** The build-time threshold (`frequencyThreshold()`). */
    uint32_t freqThreshold = 0;
    uint64_t distinctMinimizers = 0;
    uint64_t totalLocations = 0;
};

/**
 * The queryable index. Construction scans every node of the graph (the
 * paper indexes "the nodes of the graph"); k-mers crossing node
 * boundaries are not indexed, which mirrors the paper's structure.
 */
class MinimizerIndex
{
  public:
    MinimizerIndex() = default;

    /**
     * Builds the index of @p graph under @p config.
     *
     * With a @p pool, hits are collected over contiguous node ranges
     * and sorted on the pool; the tables are identical to a build
     * without one, at every pool size. The call blocks on the pool, so
     * it must not come from one of the pool's workers.
     *
     * @param[out] times Optional wall-time split of the build.
     * @throws InputError for invalid sketch parameters or bucketBits
     *         outside [1, 32].
     */
    static MinimizerIndex build(const graph::GenomeGraph &graph,
                                const IndexConfig &config,
                                util::ThreadPool *pool = nullptr,
                                IndexBuildTimes *times = nullptr);

    /**
     * @return The seed locations of @p hash, empty when the minimizer is
     *         absent. Its size() is the occurrence frequency, so one
     *         search answers both MinSeed queries: the frequency filter
     *         (step 3 of Fig. 4) and the location fetch (step 5).
     */
    std::span<const SeedLocation> locations(uint64_t hash) const;

    /**
     * Batched locations(): sets @p out[i] to the seed locations of
     * @p minimizers[i].hash. The search walks kLookupGroup minimizers at
     * a time in three stages (bucket offsets, level-2 runs, level-3
     * spans) and prefetches each stage's cache lines one stage ahead,
     * so the misses of a whole group overlap instead of forming one
     * serial chain per minimizer. @p out must hold at least
     * minimizers.size() entries.
     */
    void lookup(std::span<const seed::Minimizer> minimizers,
                std::span<std::span<const SeedLocation>> out) const;

    /**
     * Minimizers whose searches overlap in lookup(). Measured with
     * MinSeed on a 4 Mbp index: groups of 8 to 32 seed a 150 bp read
     * in ~25% less time than a group of 1, and alike within noise.
     */
    static constexpr size_t kLookupGroup = 16;

    /**
     * The occurrence-count threshold above which MinSeed discards a
     * minimizer, computed at build time so that the top
     * `discardTopFraction` of distinct minimizers exceed it.
     */
    uint32_t frequencyThreshold() const { return freq_threshold_; }

    /** The `IndexConfig::discardTopFraction` the index was built with. */
    double discardTopFraction() const { return discard_top_fraction_; }

    /** @return Footprint/occupancy statistics of this index. */
    const IndexStats &stats() const { return stats_; }

    /**
     * Computes the occurrence histogram of the distinct minimizers:
     * ten frequency deciles (coldest first) plus the @p top_n hottest
     * seeds, the data behind `segram index --stats` cap tuning.
     */
    OccurrenceReport occurrenceReport(size_t top_n = 10) const;

    /** @return The sketch parameters the index was built with. */
    const seed::SketchConfig &sketch() const { return sketch_; }

    int bucketBits() const { return bucket_bits_; }

  private:
    friend class segram::io::PackCodec;

    /**
     * @return The level-3 locations of @p hash, searched for in the
     *         level-2 run [@p first, @p last) of its bucket; empty when
     *         absent.
     */
    std::span<const SeedLocation> searchRun(uint32_t first, uint32_t last,
                                            uint64_t hash) const;

    uint64_t bucketOf(uint64_t hash) const;

    /**
     * Fills the three levels, the frequency threshold and the
     * statistics from @p sorted, the hits in level order.
     */
    void buildTables(std::span<const IndexHit> sorted,
                     util::ThreadPool *pool);

    seed::SketchConfig sketch_;
    int bucket_bits_ = 0;
    uint32_t freq_threshold_ = 0;
    double discard_top_fraction_ = 0.0;
    /// level 1 (CSR into level 2)
    util::TableStorage<uint32_t> bucket_offsets_;
    util::TableStorage<MinimizerEntry> minimizers_; ///< level 2
    util::TableStorage<SeedLocation> locations_;    ///< level 3
    IndexStats stats_;
};

/**
 * Recomputes the Fig. 7 series for an alternative bucket count without
 * rebuilding: footprint in bytes and max minimizers per bucket.
 */
IndexStats statsForBucketBits(const graph::GenomeGraph &graph,
                              const IndexConfig &config);

} // namespace segram::index

#endif // SEGRAM_SRC_INDEX_MINIMIZER_INDEX_H
