/**
 * @file
 * The mapping-engine abstraction.
 *
 * SeGraM's throughput story is read-level parallelism: the paper
 * provisions one MinSeed+BitAlign module pair per HBM2E channel, all
 * pairs sharing only the read-only graph and index, and scales
 * linearly across channels. `MappingEngine` is the software contract
 * that makes the same story expressible here: any single-chromosome
 * mapper (SegramMapper, the sequence-to-sequence baselines) exposes a
 * per-read `mapOne` and a group `mapMany`, and ShardedBatchMapper
 * (src/core/sharded_mapper.h) — the one batch driver — runs one engine
 * per chromosome across a thread pool, each worker standing in for one
 * channel's module pair, and merges the per-chromosome results.
 *
 * The pipeline result/statistics types (`MapResult`, `PipelineStats`)
 * live in src/core/map_result.h; src/core/segram.h layers the concrete
 * SeGraM pipeline on top.
 */

#ifndef SEGRAM_SRC_CORE_ENGINE_H
#define SEGRAM_SRC_CORE_ENGINE_H

#include <memory>
#include <span>
#include <string_view>

#include "src/core/map_result.h"
#include "src/core/workspace.h"

namespace segram::core
{

/**
 * Uniform interface over every single-chromosome mapper in the repo.
 * Naming the chromosome is the batch driver's job, so engines return
 * plain MapResults.
 *
 * Thread-safety contract (the software equivalent of the paper's
 * shared read-only graph+index across channel modules): `mapOne` and
 * `mapMany` must be safe to call concurrently from multiple threads on
 * one engine instance, with per-call state confined to the stack, the
 * caller-supplied stats accumulator and the caller's workspace.
 */
class MappingEngine
{
  public:
    virtual ~MappingEngine() = default;

    /**
     * Maps one read end to end.
     *
     * @param read       Query read (ACGT, non-empty).
     * @param[out] stats Optional counter accumulator; when null, no
     *                   counters are kept.
     * @param workspace  Scratch buffers; engines whose hot path
     *                   supports reuse stay allocation-free out of a
     *                   warm one. Must not be shared between
     *                   concurrent calls.
     */
    virtual MapResult mapOne(std::string_view read, PipelineStats *stats,
                             MapWorkspace &workspace) const = 0;

    /**
     * Maps a group of reads out of one workspace, results positional
     * (results[i] belongs to reads[i]; the spans must be equal-sized).
     * This is the granularity at which cross-read batching is possible:
     * engines whose hot path can fill SIMD lanes across reads
     * (SegramMapper's lane-batched BitAlign scheduler) override it; the
     * default maps each read individually via mapOne. Results are
     * bit-identical to the per-read path either way — batching is an
     * execution strategy, not a semantic.
     */
    virtual void
    mapMany(std::span<const std::string_view> reads,
            std::span<MapResult> results, PipelineStats *stats,
            MapWorkspace &workspace) const
    {
        for (size_t i = 0; i < reads.size(); ++i)
            results[i] = mapOne(reads[i], stats, workspace);
    }

    /** Short stable identifier ("segram", "vg-like", ...). */
    virtual std::string_view engineName() const = 0;
};

/**
 * Adds a reverse-complement retry to any MappingEngine: each read is
 * mapped as-is and as its reverse complement, and the better
 * alignment wins (lower edit distance; ties keep the forward strand,
 * so results are deterministic). The winning RC result carries
 * `reverseComplemented = true` with coordinates already on the
 * forward strand, exactly like SegramConfig::tryReverseComplement —
 * this wrapper is how the CPU baselines get the same both-strands
 * behaviour real GraphAligner/vg have, keeping accuracy comparisons
 * honest on two-strand read sets.
 */
class RcRetryEngine : public MappingEngine
{
  public:
    /** @throws InputError when @p inner is null. */
    explicit RcRetryEngine(std::unique_ptr<MappingEngine> inner);

    /** Uses the workspace's RC buffer and lends the rest to @p inner. */
    MapResult mapOne(std::string_view read, PipelineStats *stats,
                     MapWorkspace &workspace) const override;
    std::string_view engineName() const override
    {
        return inner_->engineName();
    }

  private:
    std::unique_ptr<MappingEngine> inner_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_ENGINE_H
