#include "src/baseline/mappers.h"

#include <algorithm>
#include <cmath>

#include "src/baseline/dp_s2g.h"
#include "src/seed/minimizer.h"
#include "src/util/check.h"

namespace segram::baseline
{

namespace
{

/** Collects frequency-filtered seed hits in chaining coordinates. */
std::vector<SeedHit>
collectHits(const graph::GenomeGraph &graph,
            const index::MinimizerIndex &index, std::string_view read,
            BaselineStats *stats)
{
    std::vector<SeedHit> hits;
    const auto minimizers =
        seed::computeMinimizers(read, index.sketch());
    const uint32_t threshold = index.frequencyThreshold();
    for (const auto &minimizer : minimizers) {
        const auto locations = index.locations(minimizer.hash);
        if (locations.empty() || locations.size() > threshold)
            continue;
        for (const auto &loc : locations) {
            const uint64_t ref_pos =
                graph.node(loc.node).linearOffset + loc.offset;
            hits.push_back({ref_pos, minimizer.pos});
        }
    }
    if (stats != nullptr)
        stats->rawSeeds += hits.size();
    return hits;
}

/** Region around a chain, mirroring the Fig. 9 extension. */
std::pair<uint64_t, uint64_t>
chainRegion(const Chain &chain, size_t read_len, double error_rate,
            uint64_t total_len)
{
    const double extend = 1.0 + error_rate;
    const SeedHit &first = chain.hits.front();
    const SeedHit &last = chain.hits.back();
    const auto left = static_cast<uint64_t>(
        std::llround(first.readPos * extend));
    const auto right = static_cast<uint64_t>(std::llround(
        (static_cast<double>(read_len) - last.readPos) * extend));
    const uint64_t start =
        first.refPos >= left ? first.refPos - left : 0;
    const uint64_t end = std::min(last.refPos + right, total_len - 1);
    return {start, end};
}

} // namespace

core::MapResult
foldBaselineResult(const BaselineMapResult &result,
                   const BaselineStats &delta,
                   core::PipelineStats *stats)
{
    core::MapResult folded;
    folded.mapped = result.mapped;
    folded.linearStart = result.linearStart;
    folded.editDistance = result.editDistance;
    folded.regionsTried = static_cast<uint32_t>(delta.seedsExtended);
    if (stats != nullptr) {
        core::PipelineStats local;
        local.readsTotal = 1;
        local.readsMapped = result.mapped ? 1 : 0;
        local.regionsAligned = delta.seedsExtended;
        local.alignmentsFound = result.mapped ? 1 : 0;
        local.seeding.seedsFetched = delta.rawSeeds;
        *stats += local;
    }
    return folded;
}

core::MapResult
GraphAlignerLike::mapOne(std::string_view read, core::PipelineStats *stats,
                         core::MapWorkspace & /*workspace*/) const
{
    BaselineStats delta;
    const BaselineMapResult result = map(read, &delta);
    return foldBaselineResult(result, delta, stats);
}

core::MapResult
VgLike::mapOne(std::string_view read, core::PipelineStats *stats,
               core::MapWorkspace & /*workspace*/) const
{
    BaselineStats delta;
    const BaselineMapResult result = map(read, &delta);
    return foldBaselineResult(result, delta, stats);
}

GraphAlignerLike::GraphAlignerLike(const graph::GenomeGraph &graph,
                                   const index::MinimizerIndex &index,
                                   const BaselineConfig &config)
    : graph_(graph), index_(index), config_(config)
{
    SEGRAM_CHECK(graph.isTopologicallySorted(),
                 "GraphAlignerLike requires a topologically sorted graph");
    SEGRAM_CHECK(config.chain.maxChains >= 1,
                 "chain.maxChains must be >= 1");
}

BaselineMapResult
GraphAlignerLike::map(std::string_view read, BaselineStats *stats) const
{
    BaselineMapResult best;
    auto hits = collectHits(graph_, index_, read, stats);
    if (hits.empty())
        return best;
    const auto chains = chainSeeds(std::move(hits), config_.chain);
    for (const Chain &chain : chains) {
        if (stats != nullptr) {
            ++stats->seedsExtended;
            stats->alignedBases += read.size();
        }
        const auto [start, end] = chainRegion(
            chain, read.size(), config_.errorRate,
            graph_.totalSeqLen());
        const auto region = graph::linearizeRange(graph_, start, end);
        // The alignment start is uncertain by up to 2*E*readPos of the
        // chain's first hit; widen the free-start window accordingly.
        align::BitAlignConfig bitalign = config_.bitalign;
        bitalign.firstWindowExtraText +=
            static_cast<int>(std::ceil(
                2.0 * config_.errorRate *
                chain.hits.front().readPos)) +
            32;
        const auto alignment =
            align::alignWindowed(region, read, bitalign);
        if (alignment.found &&
            (!best.mapped || alignment.editDistance < best.editDistance)) {
            best.mapped = true;
            best.editDistance = alignment.editDistance;
            best.linearStart = alignment.linearStart;
        }
    }
    return best;
}

VgLike::VgLike(const graph::GenomeGraph &graph,
               const index::MinimizerIndex &index,
               const BaselineConfig &config)
    : graph_(graph), index_(index), config_(config)
{
    SEGRAM_CHECK(graph.isTopologicallySorted(),
                 "VgLike requires a topologically sorted graph");
    SEGRAM_CHECK(config.vgChunkLen >= 32, "vgChunkLen must be >= 32");
}

BaselineMapResult
VgLike::map(std::string_view read, BaselineStats *stats) const
{
    BaselineMapResult best;
    auto hits = collectHits(graph_, index_, read, stats);
    if (hits.empty())
        return best;
    const auto chains = chainSeeds(std::move(hits), config_.chain);
    const auto chunk_len = static_cast<size_t>(config_.vgChunkLen);
    for (const Chain &chain : chains) {
        if (stats != nullptr) {
            ++stats->seedsExtended;
            stats->alignedBases += read.size();
        }
        const auto [start, end] = chainRegion(
            chain, read.size(), config_.errorRate,
            graph_.totalSeqLen());
        const auto region = graph::linearizeRange(graph_, start, end);

        // Chunked DP, vg-style: each read chunk is DP-aligned against
        // the proportionally sliced region (plus slack) and distances
        // accumulate. This bounds the DP table like vg's chunking.
        int total = 0;
        bool ok = true;
        uint64_t first_start = 0;
        const double scale =
            static_cast<double>(region.size()) /
            static_cast<double>(read.size());
        for (size_t pos = 0; pos < read.size() && ok;
             pos += chunk_len) {
            const size_t len = std::min(chunk_len, read.size() - pos);
            // Window the region proportionally with margin on both
            // sides so indel drift and the left extension stay inside.
            const int margin = config_.vgChunkLen / 2;
            const auto center = static_cast<int>(
                std::min<double>(pos * scale,
                                 region.size() > 1 ? region.size() - 1
                                                   : 0));
            const int text_lo = std::max(0, center - margin);
            const auto want = static_cast<int>(
                std::llround(static_cast<double>(len) * scale)) +
                (center - text_lo) + margin;
            const int text_len =
                std::min<int>(want, region.size() - text_lo);
            if (text_len <= 0) {
                ok = false;
                break;
            }
            const auto window = region.window(text_lo, text_len);
            const auto result = dpGraphDistance(
                window, read.substr(pos, len));
            if (pos == 0)
                first_start = window.linearStart();
            total += result.editDistance;
        }
        if (ok && (!best.mapped || total < best.editDistance)) {
            best.mapped = true;
            best.editDistance = total;
            best.linearStart = first_start;
        }
    }
    return best;
}

} // namespace segram::baseline
