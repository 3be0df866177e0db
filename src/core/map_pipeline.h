/**
 * @file
 * MapPipeline: `segram map`'s streaming loop — FASTA/FASTQ records in,
 * PAF records out — with parsing, mapping and writing overlapped.
 *
 * The paper keeps every channel's MinSeed+BitAlign pair fed at all
 * times. Mapping a batch, then formatting it, then parsing the next
 * one leaves the workers idle while the calling thread does I/O, and
 * every batch waits for its slowest item. Here two batches are in
 * flight: one mapping and one queued behind it in the pool, so a
 * worker that runs out of the first batch's items starts on the second
 * at once. Meanwhile the calling thread formats and writes the oldest
 * finished batch, in input order, and parses the next one.
 *
 * Output bytes and counters do not depend on the overlap: every batch
 * is cut exactly as a batch-at-a-time loop would cut it (so chunk and
 * lane-batching boundaries do not move), ShardedBatchMapper results
 * are thread-count-invariant, and batches are written in input order.
 */

#ifndef SEGRAM_SRC_CORE_MAP_PIPELINE_H
#define SEGRAM_SRC_CORE_MAP_PIPELINE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/map_result.h"
#include "src/core/sharded_mapper.h"
#include "src/io/fastx.h"
#include "src/io/paf.h"

namespace segram::core
{

/** Totals of one MapPipeline run. */
struct MapRunTotals
{
    uint64_t reads = 0;  ///< records parsed and mapped
    uint64_t bases = 0;  ///< their bases
    uint64_t mapped = 0; ///< PAF records written
    PipelineStats stats; ///< the mapper's counters, summed over batches

    // Wall-clock split of the calling thread.
    double parseSec = 0; ///< parsing records into batches
    double waitSec = 0;  ///< blocked until the oldest batch was mapped
    double writeSec = 0; ///< formatting and writing PAF (final flush too)
    double wallSec = 0;  ///< the whole run

    /** Seconds the mapper's workers spent in work items, summed over
     *  workers, during the run. */
    double poolBusySec = 0;
};

/**
 * Streams every record of a FastxReader through a ShardedBatchMapper
 * into a PafWriter. All four must outlive the pipeline; the mapper
 * must not be shared with a concurrent caller while run() is going,
 * or poolBusySec counts that caller's work too.
 */
class MapPipeline
{
  public:
    /** Batches in flight: one mapping, one queued behind it. */
    static constexpr size_t kInFlight = 2;

    /** @param batch_size Records per batch (>= 1), as `--batch`. */
    MapPipeline(io::FastxReader &reader, const ShardedBatchMapper &mapper,
                const PafFormatter &formatter, io::PafWriter &writer,
                size_t batch_size);

    /**
     * Maps the reader's remaining records and writes their PAF in
     * input order, then flushes the writer.
     *
     * On failure the first error in input order is thrown: a mapping
     * error of an earlier batch wins over a parse error of a later
     * one. Every batch before the failing one is written first; the
     * failing batch and everything after it are not. A write error
     * (IoError) propagates as well. Either way no batch is left
     * mapping when run() returns or throws.
     */
    void run();

    /** Totals so far (complete after run() returns). */
    const MapRunTotals &totals() const { return totals_; }

    /** Pool busy fraction of the run: poolBusySec / (threads x
     *  wallSec); 0 before run(). */
    double poolBusyFraction() const;

  private:
    /**
     * One batch: names and sequences only — neither mapping nor PAF
     * reads quality strings, so they are never kept in flight.
     */
    struct Batch
    {
        std::vector<std::string> names;
        std::vector<std::string> seqs;
        std::vector<std::string_view> views; ///< into seqs, for submit
        ShardedBatchMapper::Ticket ticket;
    };

    /** Parses up to batchSize_ records into @p batch.
     *  @return False when the input is exhausted. */
    bool parse(Batch &batch);

    /** Formats and writes @p batch's mapped records. */
    void write(const Batch &batch,
               const std::vector<MultiMapResult> &results);

    io::FastxReader &reader_;
    const ShardedBatchMapper &mapper_;
    const PafFormatter &formatter_;
    io::PafWriter &writer_;
    size_t batchSize_;
    io::FastxRecord record_; ///< parse scratch; keeps the quality buffer
    MapRunTotals totals_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_MAP_PIPELINE_H
