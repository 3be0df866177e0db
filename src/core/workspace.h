/**
 * @file
 * MapWorkspace: the per-thread scratch bundle of the mapping hot path.
 *
 * SeGraM's hardware streams every read through MinSeed -> BitAlign with
 * fixed on-chip scratchpads and zero dynamic allocation. This is the
 * software equivalent: one MapWorkspace bundles every reusable buffer
 * the per-read pipeline needs — the candidate-region vector MinSeed
 * fills, the reverse-complement buffer, the region linearization, the
 * flat bitvector slab + pattern masks BitAlign computes out of, and the
 * CIGAR/traceback scratch — so a warm worker maps read after read
 * without touching the heap.
 *
 * Ownership model: ShardedBatchMapper owns one workspace per pool
 * thread and lends it to the engines via MappingEngine::mapMany(reads,
 * results, stats, ws); standalone callers can hold their own. A
 * workspace must never be shared between concurrent calls (it is the
 * thread's scratchpad, not shared state), and it pins no results —
 * everything returned to the caller is copied out of it.
 */

#ifndef SEGRAM_SRC_CORE_WORKSPACE_H
#define SEGRAM_SRC_CORE_WORKSPACE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/align/bitalign.h"
#include "src/align/window_batch.h"
#include "src/core/map_result.h"
#include "src/graph/linearize.h"
#include "src/seed/chaining.h"
#include "src/seed/minseed.h"

namespace segram::core
{

/**
 * One candidate region's buffered outcome in the speculative region
 * scheduler. Regions of a strand may *finish* out of order (they run
 * in parallel lanes), but their results fold into the strand best
 * strictly in region order — the order mapRead tries them — so a
 * late-arriving earlier region gates the commit of buffered later
 * ones, and an early exit discards everything past the exit region.
 */
struct RegionOutcome
{
    /** 0 = not started, 1 = stream in flight, 2 = finished. */
    uint8_t state = 0;
    align::GraphAlignment alignment;  ///< stream result (state == 2)
};

/**
 * One strand task (read x orientation) of the lane-batched mapping
 * scheduler. A task owns its candidate-region list and strand-level
 * best; the scheduler may run several of its regions' window streams
 * concurrently (speculatively past an undecided early-exit check),
 * buffering outcomes and committing them in region order. Buffers are
 * reused across activations via a small task pool.
 */
struct StrandTask
{
    // --- reusable buffers ---
    std::string rc;                              ///< RC read (strand 1)
    std::vector<seed::CandidateRegion> regions;  ///< this strand's list
    std::vector<RegionOutcome> outcomes;         ///< per-region staging

    // --- scheduler state (reset per activation) ---
    std::string_view read;    ///< forward view or rc
    size_t readIndex = 0;     ///< index into the mapMany batch
    int strand = 0;           ///< 0 = forward, 1 = reverse complement
    size_t started = 0;       ///< regions whose stream has been issued
    size_t committed = 0;     ///< regions folded into best (in order)
    int inFlight = 0;         ///< lanes currently running this task
    int earlyExitEdits = -1;  ///< early-exit threshold (-1 = off)
    MapResult best;           ///< strand-level best-so-far
    bool finished = false;    ///< strand result delivered
    bool inUse = false;       ///< pool slot occupancy
};

/**
 * One SIMD lane of the scheduler: the window stream of one candidate
 * region of one strand task. Idle when task < 0.
 */
struct LaneSlot
{
    int task = -1;        ///< owning StrandTask pool index, -1 = idle
    size_t region = 0;    ///< region index within the task
    graph::LinearizedGraph linearization;  ///< this region's subgraph
    align::GraphAlignment alignment;       ///< stream output
    align::WindowResult window;            ///< last window result
    align::WindowedAlignStream stream;     ///< window state machine
};

/** Per-thread reusable scratch for the whole mapping pipeline. */
struct MapWorkspace
{
    // --- seeding ---
    seed::SeedScratch seed;                       ///< minimizer buffers
    std::vector<seed::CandidateRegion> regions;   ///< MinSeed output
    std::vector<seed::CandidateRegion> filtered;  ///< chain-filter output
    std::vector<seed::SeedHit> chainHits;         ///< chain-filter input
    seed::ChainScratch chainScratch;              ///< chainSeeds buffers

    // --- read preparation ---
    std::string rcBuffer; ///< SegramMapper's reverse-complement buffer
    /**
     * RcRetryEngine's reverse-complement buffer. Distinct from
     * rcBuffer on purpose: the wrapper passes its buffer as the *read*
     * into the inner engine, which may fill rcBuffer for its own RC
     * pass — one shared buffer would alias input and scratch.
     */
    std::string rcRetryBuffer;

    // --- alignment ---
    graph::LinearizedGraph linearization; ///< candidate-region subgraph
    /** Lane-major bitvector streams + per-lane PM masks, shared by
     *  mapRead's windows and mapMany's batches. */
    align::AlignScratch align;
    align::GraphAlignment alignment;      ///< per-region result (reused)

    // --- lane-batched scheduling (SegramMapper::mapMany) ---
    std::vector<StrandTask> tasks;    ///< strand-task pool
    std::vector<int> activeTasks;     ///< pool indices, activation order
    std::vector<LaneSlot> lanes;      ///< kBatchLanes region streams
    /** Per-strand staging of a batch: entry strands*readIndex+strand
     *  holds a finished strand result until its sibling arrives. */
    std::vector<MapResult> pendingStrand;
    std::vector<uint8_t> pendingStrandDone; ///< staging validity flags
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_WORKSPACE_H
