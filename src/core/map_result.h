/**
 * @file
 * Result and statistics types of the mapping pipeline, split out of
 * engine.h so lower layers (the per-thread MapWorkspace, whose
 * strand-task slots stage per-strand MapResults for the lane-batched
 * scheduler) can name them without pulling in the engine interface.
 * engine.h re-exports everything here.
 */

#ifndef SEGRAM_SRC_CORE_MAP_RESULT_H
#define SEGRAM_SRC_CORE_MAP_RESULT_H

#include <cstdint>
#include <string>

#include "src/seed/minseed.h"
#include "src/util/cigar.h"

namespace segram::core
{

/** Result of mapping one read. */
struct MapResult
{
    bool mapped = false;
    uint64_t linearStart = 0; ///< concatenated coordinate of the start
    int editDistance = 0;
    Cigar cigar;
    uint32_t regionsTried = 0;
    /** True when the reverse complement of the read aligned best. */
    bool reverseComplemented = false;
};

/**
 * The one winner rule between mapped results (strand merge, RC retry,
 * cross-shard merge): @p candidate replaces @p incumbent only when it
 * mapped and either the incumbent did not or its edit distance is
 * strictly lower. Ties keep the incumbent.
 */
inline bool
replacesResult(const MapResult &candidate, const MapResult &incumbent)
{
    return candidate.mapped &&
           (!incumbent.mapped ||
            candidate.editDistance < incumbent.editDistance);
}

/** Map result extended with the winning chromosome: the batch
 *  driver's (ShardedBatchMapper's) output. */
struct MultiMapResult : MapResult
{
    std::string chromosome;
};

/**
 * Per-stage wall time of the pipeline, in seconds. Summed across
 * threads (so on a multi-threaded run the total exceeds wall time —
 * it is aggregate stage *work*, the quantity the paper's per-accelerator
 * breakdown reports). Unlike the integer counters these are not
 * bit-reproducible across runs; they are reporting-only.
 */
struct StageTimings
{
    double seedingSec = 0.0;     ///< MinSeed (minimizers -> regions)
    double linearizeSec = 0.0;   ///< candidate subgraph linearization
    double alignSec = 0.0;       ///< BitAlign over all windows

    StageTimings &
    operator+=(const StageTimings &other)
    {
        seedingSec += other.seedingSec;
        linearizeSec += other.linearizeSec;
        alignSec += other.alignSec;
        return *this;
    }
};

/** Aggregated pipeline counters. */
struct PipelineStats
{
    seed::MinSeedStats seeding;
    uint64_t regionsAligned = 0;
    uint64_t alignmentsFound = 0;
    uint64_t readsMapped = 0;
    uint64_t readsTotal = 0;

    // Lane-occupancy telemetry of the batched BitAlign path. All three
    // are deterministic counters (thread-count-invariant, like the
    // work counters above): windows aligned through batched kernel
    // launches of two or more lanes, the launches themselves
    // (occupancy = batchedWindows / batchLaunches), and windows of a
    // lone draining lane, which run the same kernel at one lane and are
    // not counted as launches.
    uint64_t batchedWindows = 0;
    uint64_t batchLaunches = 0;
    uint64_t scalarWindows = 0;

    StageTimings timings; ///< reporting-only (not bit-reproducible)

    PipelineStats &
    operator+=(const PipelineStats &other)
    {
        seeding += other.seeding;
        regionsAligned += other.regionsAligned;
        alignmentsFound += other.alignmentsFound;
        readsMapped += other.readsMapped;
        readsTotal += other.readsTotal;
        batchedWindows += other.batchedWindows;
        batchLaunches += other.batchLaunches;
        scalarWindows += other.scalarWindows;
        timings += other.timings;
        return *this;
    }
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_MAP_RESULT_H
