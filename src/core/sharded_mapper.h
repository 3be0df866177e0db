/**
 * @file
 * ShardedBatchMapper: the repo's one batch driver, for SeGraM and for
 * the CPU baselines alike.
 *
 * The paper builds one graph per chromosome and spreads the
 * chromosomes over HBM channels, each channel's MinSeed+BitAlign pair
 * sharing only read-only tables. This driver is that schedule in
 * software: one MappingEngine per chromosome (shard), and the full
 * (read-chunk x shard) grid run shard-major through the thread pool's
 * work-stealing mode. Workers start on different shards (locality:
 * one shard's tables stay hot in cache while its items drain), skew
 * is absorbed by stealing, and a memory budget can keep only the
 * shards in flight resident (ShardResidency).
 *
 * Output is bit-identical for every thread count: per-(read, shard)
 * results are pure functions of their inputs, the grid partition is
 * fixed by chunkSize, and the merge — lowest edit distance wins, ties
 * to the earlier chromosome — runs over a deterministic shard order
 * after the grid completes. That merge is the only place in the repo
 * where results of different chromosomes meet.
 *
 * PafFormatter is the one result -> PAF step: `segram map`, the daemon
 * and the benches and tests that compare against them all print the
 * driver's results through it, so target names, lengths, strands and
 * coordinates cannot drift apart.
 */

#ifndef SEGRAM_SRC_CORE_SHARDED_MAPPER_H
#define SEGRAM_SRC_CORE_SHARDED_MAPPER_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/workspace.h"
#include "src/io/paf.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace segram::core
{

/** ShardedBatchMapper knobs. */
struct ShardedBatchConfig
{
    /**
     * Worker threads; <= 0 picks the host's hardware concurrency.
     * One worker models one HBM channel's MinSeed+BitAlign pair.
     */
    int threads = 1;

    /**
     * Reads per work item (one item = one chunk against one shard).
     * Small enough to balance skewed per-read cost (a repeat-heavy
     * read can be 100x the median), large enough to amortize the
     * claim and to fill the engines' cross-read batches.
     */
    size_t chunkSize = 8;

    /**
     * Resident-shard budget in bytes; 0 maps without residency
     * control. Only effective for pack-backed references (in-memory
     * tables cannot be dropped); pair with PackLoadOptions::coldLoad
     * so the mapping starts cold.
     */
    uint64_t memBudgetBytes = 0;
};

/**
 * The SeGraM engine list: one SegramMapper per chromosome of
 * @p reference, in reference order. @p reference must outlive the
 * engines.
 */
std::vector<std::unique_ptr<MappingEngine>>
segramEngines(const PreprocessedReference &reference,
              const SegramConfig &config = {});

/**
 * Work-stealing (read-chunk x shard) batch driver over one
 * MappingEngine per chromosome. One instance owns one thread pool and
 * per-worker workspaces; the reference must outlive the mapper.
 *
 * Batches can be in flight together: submit() queues a batch and
 * returns at once, collect() waits for it and merges it. The pool
 * drains batches in submit order, so a worker that runs out of one
 * batch's items starts on the next instead of idling at the boundary.
 * submit, collect and mapBatch may be called from any thread.
 */
class ShardedBatchMapper
{
  public:
    /**
     * @param reference Names the shards (and backs the residency
     *                  control under a memory budget).
     * @param engines   One engine per chromosome of @p reference, in
     *                  reference order; each must honour the
     *                  MappingEngine thread-safety contract.
     * @throws InputError on a wrong engine count or a null engine.
     */
    ShardedBatchMapper(const PreprocessedReference &reference,
                       std::vector<std::unique_ptr<MappingEngine>> engines,
                       const ShardedBatchConfig &batch = {});

    /** The SeGraM pipeline: one SegramMapper per chromosome. */
    ShardedBatchMapper(const PreprocessedReference &reference,
                       const SegramConfig &config = {},
                       const ShardedBatchConfig &batch = {});

    /** See submit() for tickets not collected by then. */
    ~ShardedBatchMapper();

    /** Names one submitted batch, for collect(). */
    struct Ticket
    {
        uint64_t id = 0;
    };

    /**
     * Queues reads[i] -> result[i] across the (chunk x shard) grid and
     * returns at once. @p reads (the views and the bytes they name)
     * must stay alive until the ticket is collected or the mapper is
     * destroyed; @p stats, when non-null, receives the batch's counters
     * at collect().
     *
     * Destroying the mapper with tickets not collected abandons their
     * unclaimed items (see util::ThreadPool) and frees their state;
     * it does not wait for their mapping.
     */
    Ticket submit(std::span<const std::string_view> reads,
                  PipelineStats *stats = nullptr) const;

    /**
     * Waits for the batch of @p ticket and returns its results, after
     * adding its counters to the stats it was submitted with. Results
     * and stats totals are bit-identical for every thread count and
     * however many batches were in flight; the read-level counters
     * count logical reads, not (read x shard) passes. Every ticket is
     * collected or cancelled at most once.
     * @throws The first error a work item of the batch threw; InputError
     *         on an unknown or already-collected ticket.
     */
    std::vector<MultiMapResult> collect(Ticket ticket) const;

    /**
     * Drops the batch of @p ticket: abandons its unclaimed items, waits
     * for its running ones, and discards its results, stats and error.
     * Afterwards nothing reads the batch's reads any more.
     */
    void cancel(Ticket ticket) const;

    /** collect(submit(reads, stats)). */
    std::vector<MultiMapResult>
    mapBatch(std::span<const std::string_view> reads,
             PipelineStats *stats = nullptr) const;

    /** Convenience overload for owned-string batches. */
    std::vector<MultiMapResult>
    mapBatch(std::span<const std::string> reads,
             PipelineStats *stats = nullptr) const;

    int threads() const { return pool_.size(); }
    size_t numShards() const { return engines_.size(); }
    /** The per-shard engines' name ("segram", "vg-like", ...). */
    std::string_view engineName() const
    {
        return engines_.front()->engineName();
    }

    /** All-zeros when no memory budget is active. */
    ShardResidency::Stats residencyStats() const;

    /** Seconds the pool's workers spent in work items, summed over
     *  workers (see util::ThreadPool::busySeconds). */
    double poolBusySeconds() const { return pool_.busySeconds(); }

  private:
    /** One submitted batch: its reads, per-shard partial results and
     *  per-worker counters (defined in sharded_mapper.cc). */
    struct Batch;

    /** Removes @p ticket's batch from batches_. */
    std::unique_ptr<Batch> take(Ticket ticket) const;

    std::vector<std::string> names_;
    std::vector<std::unique_ptr<MappingEngine>> engines_;
    ShardedBatchConfig config_;
    /** One private workspace per pool worker — the software image of
     *  each HBM channel module's private scratchpad. Not guarded by a
     *  mutex: workspaces_[w] is touched only by pool worker w, which
     *  runs one item at a time, whichever batch the item belongs to. */
    mutable std::vector<MapWorkspace> workspaces_;
    /** LRU residency control; null when memBudgetBytes == 0. */
    mutable std::unique_ptr<ShardResidency> residency_;
    mutable util::Mutex batchesMutex_;
    /** Submitted, not yet collected batches, keyed by ticket id. */
    mutable std::map<uint64_t, std::unique_ptr<Batch>> batches_
        SEGRAM_GUARDED_BY(batchesMutex_);
    /** Internally synchronized (ThreadPool's job state carries the
     *  clang thread-safety annotations). Declared last, so it is
     *  destroyed first: items still running on destruction finish
     *  before the batches, workspaces and engines they use are freed. */
    mutable util::ThreadPool pool_;
};

/** Coordinate space of the PAF target columns. */
enum class PafCoords
{
    kConcatenated, ///< the graph's concatenated node offsets
    kPath,         ///< the reference path (`segram map --path-coords`)
};

/** Formats MultiMapResults against one PreprocessedReference, which
 *  must outlive the formatter. */
class PafFormatter
{
  public:
    explicit PafFormatter(const PreprocessedReference &reference,
                          PafCoords coords = PafCoords::kConcatenated);

    /**
     * The record of read @p name (@p read_len bases) mapped as
     * @p result; std::nullopt when the read did not map.
     *
     * Under kPath both alignment ends are projected onto the path (ALT
     * bases consume graph but no path, so the end is projected, not
     * added), and the end is clamped into [targetStart, pathLength]:
     * start + reference span can land in an ALT node the alignment
     * hopped over, whose divergence point lies behind the start.
     */
    std::optional<io::PafRecord>
    record(std::string_view name, uint64_t read_len,
           const MultiMapResult &result) const;

    /** Appends record()'s PAF line to @p out (nothing when unmapped).
     *  @return True when a line was appended. */
    bool format(std::string &out, std::string_view name, uint64_t read_len,
                const MultiMapResult &result) const;

  private:
    struct Target
    {
        uint64_t len = 0; ///< in the formatter's coordinates
        const graph::GenomeGraph *graph = nullptr;
    };

    std::unordered_map<std::string, Target> targets_;
    PafCoords coords_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_SHARDED_MAPPER_H
