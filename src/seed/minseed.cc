#include "src/seed/minseed.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace segram::seed
{

MinSeed::MinSeed(const graph::GenomeGraph &graph,
                 const index::MinimizerIndex &idx,
                 const MinSeedConfig &config)
    : graph_(graph), index_(idx), config_(config)
{
    SEGRAM_CHECK(config.errorRate >= 0.0 && config.errorRate < 1.0,
                 "error rate must be in [0, 1)");
}

uint32_t
MinSeed::effectiveThreshold() const
{
    return config_.frequencyThreshold != 0 ? config_.frequencyThreshold
                                           : index_.frequencyThreshold();
}

std::vector<CandidateRegion>
MinSeed::seedRead(std::string_view read, MinSeedStats *stats) const
{
    std::vector<CandidateRegion> regions;
    SeedScratch scratch;
    seedRead(read, regions, scratch, stats);
    return regions;
}

void
MinSeed::seedRead(std::string_view read, std::vector<CandidateRegion> &regions,
                  SeedScratch &scratch, MinSeedStats *stats) const
{
    const auto &sketch = index_.sketch();
    const double extend = 1.0 + config_.errorRate;
    const uint64_t total_len = graph_.totalSeqLen();
    const uint32_t threshold = effectiveThreshold();
    const auto m = static_cast<int64_t>(read.size());

    MinSeedStats local;
    regions.clear();

    computeMinimizers(read, sketch, scratch.minimizers, scratch.sketch);
    const std::vector<Minimizer> &minimizers = scratch.minimizers;
    local.minimizersComputed = minimizers.size();
    // One batched search answers steps 3 and 5 of Fig. 4 for the whole
    // read: a span's size is the frequency, its elements the locations.
    scratch.locations.resize(minimizers.size());
    index_.lookup(minimizers, scratch.locations);

    const uint32_t cap = config_.maxOccurrences;

    for (size_t i = 0; i < minimizers.size(); ++i) {
        const Minimizer &minimizer = minimizers[i];
        const std::span<const index::SeedLocation> locations =
            scratch.locations[i];
        // Step 3-4 of Fig. 4: frequency + threshold filter.
        const auto freq = static_cast<uint32_t>(locations.size());
        local.seedsAvailable += freq;
        if (freq == 0 || freq > threshold)
            continue;
        ++local.minimizersKept;

        const auto emit = [&](const index::SeedLocation &loc) {
            ++local.seedsFetched;
            // Fig. 9 coordinates: [a,b] in the read, [c,d] in the graph.
            const int64_t a = minimizer.pos;
            const int64_t b = a + sketch.k - 1;
            const uint64_t c =
                graph_.node(loc.node).linearOffset + loc.offset;
            const uint64_t d = c + sketch.k - 1;

            const auto left = static_cast<uint64_t>(
                std::llround(static_cast<double>(a) * extend));
            const auto right = static_cast<uint64_t>(std::llround(
                static_cast<double>(m - b - 1) * extend));

            CandidateRegion region;
            region.start = c >= left ? c - left : 0;
            region.end = std::min(d + right, total_len - 1);
            region.minimizerPos = minimizer.pos;
            region.seed = loc;
            regions.push_back(region);
        };

        // Step 5: fetch seed locations. An over-full list is
        // subsampled at evenly spaced indices (position-stratified:
        // the occurrence list is sorted by location, so strided
        // indices cover the whole reference). The sample is a pure
        // function of (list, cap) — deterministic regardless of
        // threading.
        if (cap != 0 && freq > cap) {
            ++local.minimizersCapped;
            local.seedsSkippedByCap += freq - cap;
            for (uint32_t i = 0; i < cap; ++i) {
                const auto idx = static_cast<size_t>(
                    (static_cast<uint64_t>(i) * freq) / cap);
                emit(locations[idx]);
            }
        } else {
            for (const auto &loc : locations)
                emit(loc);
        }
    }

    std::sort(regions.begin(), regions.end(),
              [](const CandidateRegion &lhs, const CandidateRegion &rhs) {
                  if (lhs.start != rhs.start)
                      return lhs.start < rhs.start;
                  return lhs.end < rhs.end;
              });
    if (config_.mergeDuplicateRegions) {
        regions.erase(
            std::unique(regions.begin(), regions.end(),
                        [](const CandidateRegion &lhs,
                           const CandidateRegion &rhs) {
                            return lhs.start == rhs.start &&
                                   lhs.end == rhs.end;
                        }),
            regions.end());
    }
    local.regionsEmitted = regions.size();
    if (stats != nullptr)
        *stats += local;
}

} // namespace segram::seed
