#include "src/index/minimizer_index.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>

#include "src/util/check.h"
#include "src/util/radix_sort.h"
#include "src/util/thread_pool.h"

namespace segram::index
{

namespace
{

/** Node ranges per pool worker in a pooled hit collection: enough
 *  that a worker slowed by another tenant delays the step by a small
 *  part of it. */
constexpr size_t kRangesPerWorker = 16;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** A buffer of n hits, left uninitialized for its first pass. */
struct HitBuffer
{
    explicit HitBuffer(size_t n)
        : data(std::make_unique_for_overwrite<IndexHit[]>(n)), size(n)
    {
    }

    std::span<IndexHit> span() { return {data.get(), size}; }

    std::unique_ptr<IndexHit[]> data;
    size_t size;
};

/**
 * Scans every graph node and collects its (hash, location) hits, in
 * (node, offset) order. The nodes are cut into contiguous ranges of
 * about equal bases (one range without a pool), each range collects
 * its own hits, and the ranges are joined in order, so the sequence is
 * the serial one at every pool size.
 */
HitBuffer
collectHits(const graph::GenomeGraph &graph, const seed::SketchConfig &sketch,
            util::ThreadPool *pool)
{
    const size_t num_nodes = graph.numNodes();
    size_t num_ranges = 1;
    if (pool != nullptr)
        num_ranges = std::clamp<size_t>(
            num_nodes, 1,
            kRangesPerWorker * static_cast<size_t>(pool->size()));
    // first[r]: the first node of range r, the node holding base
    // total * r / num_ranges of the node-order concatenation.
    std::vector<graph::NodeId> first(num_ranges + 1);
    first[num_ranges] = static_cast<graph::NodeId>(num_nodes);
    for (size_t r = 1; r < num_ranges; ++r)
        first[r] = graph.nodeAtLinear(graph.totalSeqLen() * r / num_ranges);

    std::vector<std::vector<IndexHit>> parts(num_ranges);
    util::forEachItem(pool, num_ranges, [&](size_t r) {
        std::vector<IndexHit> &hits = parts[r];
        std::string seq;
        std::vector<seed::Minimizer> minimizers;
        seed::MinimizerScratch scratch;
        for (graph::NodeId id = first[r]; id < first[r + 1]; ++id) {
            graph.nodeSeq(id, seq);
            seed::computeMinimizers(seq, sketch, minimizers, scratch);
            for (const auto &minimizer : minimizers)
                hits.push_back({minimizer.hash, id, minimizer.pos});
        }
    });

    std::vector<size_t> offset(num_ranges + 1, 0);
    for (size_t r = 0; r < num_ranges; ++r)
        offset[r + 1] = offset[r] + parts[r].size();
    HitBuffer hits(offset[num_ranges]);
    util::forEachItem(pool, num_ranges, [&](size_t r) {
        std::copy(parts[r].begin(), parts[r].end(),
                  hits.data.get() + offset[r]);
        parts[r] = {}; // free each range as soon as it is joined
    });
    return hits;
}

} // namespace

std::span<IndexHit>
sortHits(std::span<IndexHit> hits, std::span<IndexHit> scratch,
         const IndexConfig &config, util::ThreadPool *pool)
{
    const int hash_bits = std::min(2 * config.sketch.k, 64);
    const int bucket_bits = config.bucketBits;
    if (bucket_bits >= hash_bits) {
        return util::radixSortStable(
            hits, scratch, [](const IndexHit &hit) { return hit.hash; },
            pool);
    }
    const uint64_t bucket_mask = (uint64_t{1} << bucket_bits) - 1;
    const int lead_shift = hash_bits - bucket_bits;
    return util::radixSortStable(
        hits, scratch,
        [=](const IndexHit &hit) {
            return ((hit.hash & bucket_mask) << lead_shift) |
                   (hit.hash >> bucket_bits);
        },
        pool);
}

uint64_t
MinimizerIndex::bucketOf(uint64_t hash) const
{
    return hash & ((uint64_t{1} << bucket_bits_) - 1);
}

MinimizerIndex
MinimizerIndex::build(const graph::GenomeGraph &graph,
                      const IndexConfig &config, util::ThreadPool *pool,
                      IndexBuildTimes *times)
{
    SEGRAM_CHECK(config.bucketBits >= 1 && config.bucketBits <= 32,
                 "bucketBits must be in [1, 32]");
    SEGRAM_CHECK(config.discardTopFraction >= 0.0 &&
                     config.discardTopFraction < 1.0,
                 "discardTopFraction must be in [0, 1)");

    MinimizerIndex out;
    out.sketch_ = config.sketch;
    out.bucket_bits_ = config.bucketBits;
    out.discard_top_fraction_ = config.discardTopFraction;

    IndexBuildTimes split;
    auto start = std::chrono::steady_clock::now();
    HitBuffer hits = collectHits(graph, config.sketch, pool);
    split.hitsSec = secondsSince(start);

    start = std::chrono::steady_clock::now();
    {
        HitBuffer scratch(hits.size);
        if (sortHits(hits.span(), scratch.span(), config, pool).data() !=
            hits.data.get())
            std::swap(hits, scratch); // the sorted hits live on in `hits`
    }
    split.sortSec = secondsSince(start);

    start = std::chrono::steady_clock::now();
    out.buildTables(hits.span(), pool);
    split.tablesSec = secondsSince(start);
    if (times != nullptr)
        *times = split;
    return out;
}

void
MinimizerIndex::buildTables(std::span<const IndexHit> sorted,
                            util::ThreadPool *pool)
{
    const size_t n = sorted.size();
    const uint64_t num_buckets = uint64_t{1} << bucket_bits_;
    auto &minimizers = minimizers_.vec();
    auto &locations = locations_.vec();
    auto &bucket_offsets = bucket_offsets_.vec();
    const auto startsEntry = [&](size_t i) {
        return i == 0 || sorted[i].hash != sorted[i - 1].hash;
    };

    // Level 2 gets an entry where the hash changes, level 3 an entry
    // per hit. Blocks count their entries, then fill them in place.
    const util::BlockSplit hit_blocks(n, pool);
    std::vector<size_t> entry_begin(hit_blocks.count + 1, 0);
    util::forEachItem(pool, hit_blocks.count, [&](size_t b) {
        const size_t end = hit_blocks.end(b);
        size_t count = 0;
        for (size_t i = hit_blocks.begin(b); i < end; ++i)
            count += startsEntry(i);
        entry_begin[b + 1] = count;
    });
    for (size_t b = 0; b < hit_blocks.count; ++b)
        entry_begin[b + 1] += entry_begin[b];
    const size_t m = entry_begin[hit_blocks.count];
    minimizers.resize(m);
    locations.resize(n);
    util::forEachItem(pool, hit_blocks.count, [&](size_t b) {
        const size_t end = hit_blocks.end(b);
        size_t entry = entry_begin[b];
        for (size_t i = hit_blocks.begin(b); i < end; ++i) {
            if (startsEntry(i))
                minimizers[entry++] = {sorted[i].hash,
                                       static_cast<uint32_t>(i), 0};
            locations[i] = {sorted[i].node, sorted[i].offset};
        }
    });

    // Each entry's count ends where the next begins; level 1 holds, for
    // every bucket, the first entry at or past it, so each entry writes
    // the offsets of the buckets from just past its predecessor's up to
    // its own.
    bucket_offsets.resize(num_buckets + 1);
    std::vector<uint32_t> counts(m);
    const util::BlockSplit entry_blocks(m, pool);
    std::vector<uint32_t> block_max(entry_blocks.count, 0);
    const auto pastBucketOf = [&](size_t j) {
        return j == 0 ? 0 : bucketOf(minimizers[j - 1].hash) + 1;
    };
    util::forEachItem(pool, entry_blocks.count, [&](size_t b) {
        const size_t end = entry_blocks.end(b);
        uint32_t most = 0;
        for (size_t j = entry_blocks.begin(b); j < end; ++j) {
            const size_t next = j + 1 < m ? minimizers[j + 1].locStart : n;
            minimizers[j].locCount =
                static_cast<uint32_t>(next - minimizers[j].locStart);
            counts[j] = minimizers[j].locCount;
            most = std::max(most, counts[j]);
            const uint64_t bucket = bucketOf(minimizers[j].hash);
            for (uint64_t k = pastBucketOf(j); k <= bucket; ++k)
                bucket_offsets[k] = static_cast<uint32_t>(j);
        }
        block_max[b] = most;
    });
    for (uint64_t k = pastBucketOf(m); k <= num_buckets; ++k)
        bucket_offsets[k] = static_cast<uint32_t>(m);

    // Frequency threshold: smallest count such that at most
    // discardTopFraction of distinct minimizers exceed it, i.e. the
    // keep-th smallest count.
    const auto discarded = static_cast<size_t>(
        discard_top_fraction_ * static_cast<double>(m));
    const size_t keep = m - discarded;
    if (keep > 0) {
        const auto nth = counts.begin() + static_cast<ptrdiff_t>(keep - 1);
        std::nth_element(counts.begin(), nth, counts.end());
        freq_threshold_ = *nth;
    }

    // Statistics (Fig. 7 series).
    IndexStats &stats = stats_;
    stats.numDistinctMinimizers = m;
    stats.numLocations = n;
    const util::BlockSplit bucket_blocks(num_buckets, pool);
    std::vector<uint64_t> bucket_max(bucket_blocks.count, 0);
    util::forEachItem(pool, bucket_blocks.count, [&](size_t b) {
        const size_t end = bucket_blocks.end(b);
        uint64_t most = 0;
        for (size_t k = bucket_blocks.begin(b); k < end; ++k)
            most = std::max<uint64_t>(
                most, bucket_offsets[k + 1] - bucket_offsets[k]);
        bucket_max[b] = most;
    });
    for (const uint64_t most : bucket_max)
        stats.maxMinimizersPerBucket =
            std::max(stats.maxMinimizersPerBucket, most);
    for (const uint32_t most : block_max)
        stats.maxLocationsPerMinimizer =
            std::max<uint64_t>(stats.maxLocationsPerMinimizer, most);
    stats.firstLevelBytes = num_buckets * 4;
    stats.secondLevelBytes = stats.numDistinctMinimizers * 12;
    stats.thirdLevelBytes = stats.numLocations * 8;
}

std::span<const SeedLocation>
MinimizerIndex::searchRun(uint32_t first, uint32_t last, uint64_t hash) const
{
    const auto begin = minimizers_.begin() + first;
    const auto end = minimizers_.begin() + last;
    const auto it = std::lower_bound(
        begin, end, hash,
        [](const MinimizerEntry &entry, uint64_t value) {
            return entry.hash < value;
        });
    if (it == end || it->hash != hash)
        return {};
    return {locations_.data() + it->locStart, it->locCount};
}

std::span<const SeedLocation>
MinimizerIndex::locations(uint64_t hash) const
{
    const uint64_t bucket = bucketOf(hash);
    return searchRun(bucket_offsets_[bucket], bucket_offsets_[bucket + 1],
                     hash);
}

void
MinimizerIndex::lookup(std::span<const seed::Minimizer> minimizers,
                       std::span<std::span<const SeedLocation>> out) const
{
    SEGRAM_DCHECK(out.size() >= minimizers.size(),
                  "lookup output shorter than its minimizer list");
    // A level-2 run longer than this many lines is searched without
    // prefetching its tail (only tiny bucket counts produce one).
    constexpr size_t kMaxRunLines = 4;
    constexpr size_t kLine = 64;
    const auto prefetch = [](const void *addr) {
        __builtin_prefetch(addr, 0, 3);
    };
    std::array<uint32_t, kLookupGroup> first{};
    std::array<uint32_t, kLookupGroup> last{};
    for (size_t base = 0; base < minimizers.size(); base += kLookupGroup) {
        const size_t group = std::min(kLookupGroup, minimizers.size() - base);
        const auto hashOf = [&](size_t i) {
            return minimizers[base + i].hash;
        };
        // Stage 1: the level-1 offsets of every bucket in the group.
        for (size_t i = 0; i < group; ++i)
            prefetch(bucket_offsets_.data() + bucketOf(hashOf(i)));
        // Stage 2: read the offsets; fetch the lines of each level-2 run.
        for (size_t i = 0; i < group; ++i) {
            const uint64_t bucket = bucketOf(hashOf(i));
            first[i] = bucket_offsets_[bucket];
            last[i] = bucket_offsets_[bucket + 1];
            const auto *run = reinterpret_cast<const char *>(
                minimizers_.data() + first[i]);
            const size_t bytes = std::min<size_t>(
                size_t{last[i] - first[i]} * sizeof(MinimizerEntry),
                kMaxRunLines * kLine);
            for (size_t offset = 0; offset < bytes; offset += kLine)
                prefetch(run + offset);
        }
        // Stage 3: search each run; fetch the head of each level-3 span.
        for (size_t i = 0; i < group; ++i) {
            out[base + i] = searchRun(first[i], last[i], hashOf(i));
            if (!out[base + i].empty())
                prefetch(out[base + i].data());
        }
    }
}

OccurrenceReport
MinimizerIndex::occurrenceReport(size_t top_n) const
{
    OccurrenceReport report;
    report.freqThreshold = freq_threshold_;
    report.distinctMinimizers = minimizers_.size();
    report.totalLocations = locations_.size();
    if (minimizers_.empty())
        return report;

    std::vector<uint32_t> counts;
    counts.reserve(minimizers_.size());
    for (const auto &entry : minimizers_)
        counts.push_back(entry.locCount);
    std::sort(counts.begin(), counts.end());

    const size_t n = counts.size();
    report.deciles.resize(10);
    for (size_t d = 0; d < 10; ++d) {
        const size_t begin = d * n / 10;
        const size_t end = (d + 1) * n / 10;
        auto &decile = report.deciles[d];
        decile.minimizers = end - begin;
        for (size_t i = begin; i < end; ++i) {
            decile.locations += counts[i];
            decile.maxFrequency = std::max(decile.maxFrequency, counts[i]);
        }
    }

    // Hottest seeds: partial sort of the level-2 entries by count
    // (descending), hash as the deterministic tiebreak.
    std::vector<OccurrenceReport::HotSeed> hot;
    hot.reserve(minimizers_.size());
    for (const auto &entry : minimizers_)
        hot.push_back({entry.hash, entry.locCount});
    const size_t keep = std::min(top_n, hot.size());
    std::partial_sort(hot.begin(), hot.begin() + keep, hot.end(),
                      [](const OccurrenceReport::HotSeed &a,
                         const OccurrenceReport::HotSeed &b) {
                          if (a.frequency != b.frequency)
                              return a.frequency > b.frequency;
                          return a.hash < b.hash;
                      });
    hot.resize(keep);
    report.topSeeds = std::move(hot);
    return report;
}

IndexStats
statsForBucketBits(const graph::GenomeGraph &graph,
                   const IndexConfig &config)
{
    // Footprints of levels 2/3 do not depend on the bucket count, so a
    // full build under the requested bucketBits gives the exact series.
    return MinimizerIndex::build(graph, config).stats();
}

} // namespace segram::index
