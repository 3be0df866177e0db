#include "src/index/minimizer_index.h"

#include <algorithm>
#include <array>

#include "src/util/check.h"

namespace segram::index
{

namespace
{

struct RawHit
{
    uint64_t hash;
    SeedLocation loc;
};

/** Scans every graph node and collects (hash, location) tuples. */
std::vector<RawHit>
collectHits(const graph::GenomeGraph &graph, const seed::SketchConfig &sketch)
{
    std::vector<RawHit> hits;
    std::string seq;
    std::vector<seed::Minimizer> minimizers;
    seed::MinimizerScratch scratch;
    for (graph::NodeId id = 0; id < graph.numNodes(); ++id) {
        graph.nodeSeq(id, seq);
        seed::computeMinimizers(seq, sketch, minimizers, scratch);
        for (const auto &minimizer : minimizers)
            hits.push_back({minimizer.hash, {id, minimizer.pos}});
    }
    return hits;
}

} // namespace

uint64_t
MinimizerIndex::bucketOf(uint64_t hash) const
{
    return hash & ((uint64_t{1} << bucket_bits_) - 1);
}

MinimizerIndex
MinimizerIndex::build(const graph::GenomeGraph &graph,
                      const IndexConfig &config)
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

    std::vector<RawHit> hits = collectHits(graph, config.sketch);
    std::sort(hits.begin(), hits.end(),
              [&out](const RawHit &a, const RawHit &b) {
                  const uint64_t bucket_a = out.bucketOf(a.hash);
                  const uint64_t bucket_b = out.bucketOf(b.hash);
                  if (bucket_a != bucket_b)
                      return bucket_a < bucket_b;
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.loc < b.loc;
              });

    const uint64_t num_buckets = uint64_t{1} << config.bucketBits;
    auto &minimizers = out.minimizers_.vec();
    auto &locations = out.locations_.vec();
    auto &bucket_offsets = out.bucket_offsets_.vec();
    bucket_offsets.assign(num_buckets + 1, 0);
    locations.reserve(hits.size());

    // Single pass: emit level-2 entries at hash boundaries, level-3
    // entries everywhere, and level-1 offsets at bucket boundaries.
    for (size_t i = 0; i < hits.size(); ++i) {
        const bool new_hash = i == 0 || hits[i].hash != hits[i - 1].hash;
        if (new_hash) {
            minimizers.push_back(
                {hits[i].hash, static_cast<uint32_t>(locations.size()),
                 0});
        }
        minimizers.back().locCount++;
        locations.push_back(hits[i].loc);
    }
    // Bucket CSR offsets over the level-2 array.
    {
        size_t entry = 0;
        for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
            bucket_offsets[bucket] = static_cast<uint32_t>(entry);
            while (entry < minimizers.size() &&
                   out.bucketOf(minimizers[entry].hash) == bucket) {
                ++entry;
            }
        }
        bucket_offsets[num_buckets] =
            static_cast<uint32_t>(minimizers.size());
        SEGRAM_DCHECK(entry == minimizers.size(),
                      "occurrence table out of sync with minimizers");
    }

    // Frequency threshold: smallest count such that at most
    // discardTopFraction of distinct minimizers exceed it.
    if (!minimizers.empty()) {
        std::vector<uint32_t> counts;
        counts.reserve(minimizers.size());
        for (const auto &entry : minimizers)
            counts.push_back(entry.locCount);
        std::sort(counts.begin(), counts.end());
        const auto discarded = static_cast<size_t>(
            config.discardTopFraction *
            static_cast<double>(counts.size()));
        const size_t keep = counts.size() - discarded;
        out.freq_threshold_ =
            keep == 0 ? 0 : counts[keep - 1];
    }

    // Statistics (Fig. 7 series).
    IndexStats &stats = out.stats_;
    stats.numDistinctMinimizers = out.minimizers_.size();
    stats.numLocations = out.locations_.size();
    for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
        stats.maxMinimizersPerBucket = std::max<uint64_t>(
            stats.maxMinimizersPerBucket,
            out.bucket_offsets_[bucket + 1] - out.bucket_offsets_[bucket]);
    }
    for (const auto &entry : out.minimizers_) {
        stats.maxLocationsPerMinimizer = std::max<uint64_t>(
            stats.maxLocationsPerMinimizer, entry.locCount);
    }
    stats.firstLevelBytes = num_buckets * 4;
    stats.secondLevelBytes = stats.numDistinctMinimizers * 12;
    stats.thirdLevelBytes = stats.numLocations * 8;
    return out;
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
