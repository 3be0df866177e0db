/**
 * @file
 * Software end-to-end sequence-to-graph mappers: the measured stand-ins
 * for the paper's CPU baselines (Section 10).
 *
 *  - GraphAlignerLike mirrors GraphAligner's pipeline shape: minimizer
 *    seeding, aggressive chaining/clustering that collapses millions of
 *    seeds to a handful of chains, then bitvector alignment of the best
 *    chains (GraphAligner's aligner is also Myers-style bit-parallel).
 *  - VgLike mirrors vg's: seed clustering followed by chunked DP
 *    alignment ("vg tackles [the DP-table size] by dividing the read
 *    into overlapping chunks", Section 3.1 Observation 2).
 *
 * Both are honest software implementations measured on the host CPU;
 * the benches compare their wall-clock against the SeGraM hardware
 * model and report relative shape, not absolute paper numbers.
 */

#ifndef SEGRAM_SRC_BASELINE_MAPPERS_H
#define SEGRAM_SRC_BASELINE_MAPPERS_H

#include <cstdint>
#include <string_view>

#include "src/align/bitalign.h"
#include "src/core/engine.h"
#include "src/seed/chaining.h"
#include "src/graph/genome_graph.h"
#include "src/index/minimizer_index.h"
#include "src/util/cigar.h"

namespace segram::baseline
{

// Chaining is a pipeline stage (src/seed); the baselines are its main
// in-repo consumers, so the names are lifted into this namespace.
using seed::Chain;
using seed::ChainConfig;
using seed::chainSeeds;
using seed::SeedHit;

/** Result of one read mapping by a baseline mapper. */
struct BaselineMapResult
{
    bool mapped = false;
    uint64_t linearStart = 0; ///< concatenated coordinate of the start
    int editDistance = 0;
};

/** Per-read pipeline counters (drives the Section 11.4 comparison). */
struct BaselineStats
{
    uint64_t rawSeeds = 0;      ///< seed hits before filtering
    uint64_t seedsExtended = 0; ///< chains aligned
    uint64_t alignedBases = 0;  ///< total read bases aligned

    BaselineStats &
    operator+=(const BaselineStats &other)
    {
        rawSeeds += other.rawSeeds;
        seedsExtended += other.seedsExtended;
        alignedBases += other.alignedBases;
        return *this;
    }
};

/** Shared configuration of the baseline mappers. */
struct BaselineConfig
{
    /** Region extension factor; MinSeed's expected error rate. */
    double errorRate = seed::MinSeedConfig().errorRate;
    /** Chaining parameters; chainSeeds keeps the best maxChains
     *  chains, and every kept chain is aligned. */
    ChainConfig chain{.maxChains = 3};
    align::BitAlignConfig bitalign; ///< GraphAlignerLike aligner params
    int vgChunkLen = 256;      ///< VgLike DP chunk length
};

/**
 * Folds one read's BaselineMapResult/BaselineStats into the engine
 * types so the baselines ride the same MappingEngine/ShardedBatchMapper
 * rails as SeGraM: seedsExtended maps to regionsAligned, a successful
 * map to alignmentsFound, and the baselines produce no CIGAR.
 */
core::MapResult foldBaselineResult(const BaselineMapResult &result,
                                   const BaselineStats &delta,
                                   core::PipelineStats *stats);

/** GraphAligner-shaped mapper: chaining + bitvector alignment. */
class GraphAlignerLike : public core::MappingEngine
{
  public:
    GraphAlignerLike(const graph::GenomeGraph &graph,
                     const index::MinimizerIndex &index,
                     const BaselineConfig &config = {});

    BaselineMapResult map(std::string_view read,
                          BaselineStats *stats = nullptr) const;

    /** MappingEngine interface (no scratch to reuse). */
    core::MapResult mapOne(std::string_view read,
                           core::PipelineStats *stats,
                           core::MapWorkspace &workspace) const override;
    std::string_view engineName() const override
    {
        return "graphaligner-like";
    }

  private:
    const graph::GenomeGraph &graph_;
    const index::MinimizerIndex &index_;
    BaselineConfig config_;
};

/** vg-shaped mapper: clustering + chunked DP alignment. */
class VgLike : public core::MappingEngine
{
  public:
    VgLike(const graph::GenomeGraph &graph,
           const index::MinimizerIndex &index,
           const BaselineConfig &config = {});

    BaselineMapResult map(std::string_view read,
                          BaselineStats *stats = nullptr) const;

    /** MappingEngine interface (no scratch to reuse). */
    core::MapResult mapOne(std::string_view read,
                           core::PipelineStats *stats,
                           core::MapWorkspace &workspace) const override;
    std::string_view engineName() const override { return "vg-like"; }

  private:
    const graph::GenomeGraph &graph_;
    const index::MinimizerIndex &index_;
    BaselineConfig config_;
};

} // namespace segram::baseline

#endif // SEGRAM_SRC_BASELINE_MAPPERS_H
