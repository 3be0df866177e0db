/**
 * @file
 * BitAlignCore: Algorithm 1 of the paper on a single window, plus the
 * traceback bit-walk.
 *
 * The algorithm generalizes the GenASM/Bitap recurrence to a linearized,
 * topologically sorted subgraph. All bitvectors are active-low (0 =
 * match). Nodes are visited from the last topological position to the
 * first, so every successor's status vectors already exist when a node
 * is processed. For each node i and edit budget d:
 *
 *     R[i][0] = AND over successors j of ((R[j][0] << 1) | PM[char i])
 *     R[i][d] = I & AND over successors j of (D & S & M), with
 *         I = R[i][d-1] << 1              (insertion: read char only)
 *         D = R[j][d-1]                   (deletion: graph char only)
 *         S = R[j][d-1] << 1              (substitution)
 *         M = (R[j][d] << 1) | PM[char i] (match)
 *
 * Pattern-bitmask bit b corresponds to read character m-1-b, so bit b of
 * R[i][d] is 0 iff the read *suffix* of length b+1 aligns along some
 * path starting at node i with at most d edits; bit m-1 marks a
 * whole-read alignment starting at i.
 *
 * Sink nodes (no successor in the window) are processed against a
 * virtual all-ones successor — the paper's pseudocode leaves this
 * implicit, but without it no alignment could end at the last node.
 *
 * All k+1 R[d] vectors of every node are retained (`allR`), which is the
 * paper's memory-optimized traceback scheme: k+1 bitvectors per *node*
 * instead of 3(k+1) per *edge*, with intermediate vectors regenerated
 * on demand during the traceback walk.
 *
 * The recurrence has one implementation, the lane-batched
 * alignWindowBatch (window_batch.h): alignWindow and
 * alignWindowDistanceOnly run their single request through it at one
 * lane, the way one BitAlign PE array computes every window.
 */

#ifndef SEGRAM_SRC_ALIGN_BITALIGN_CORE_H
#define SEGRAM_SRC_ALIGN_BITALIGN_CORE_H

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/graph/linearize.h"
#include "src/util/bitops_simd.h"
#include "src/util/bitvector.h"
#include "src/util/cigar.h"

namespace segram::align
{

/** Start-freedom policy for one alignment. */
enum class AlignMode : uint8_t
{
    /** The read may begin at any node of the window (free start). */
    SemiGlobal,
    /** The read must begin at window position 0 (divide-and-conquer). */
    Anchored,
};

/**
 * The four per-character pattern bitmasks (Algorithm 1 line 3), stored
 * as flat multi-word vectors. Active-low: bit b of masks[c] is 0 iff
 * pattern character m-1-b equals base c.
 */
struct PatternBitmasks
{
    int m = 0;      ///< pattern length in characters
    int nwords = 0; ///< 64-bit words per bitvector
    std::array<std::vector<uint64_t>, 4> masks;

    /** Builds the bitmasks of @p pattern (ACGT, non-empty). */
    static PatternBitmasks build(std::string_view pattern);

    /**
     * Rebuilds in place for a new pattern, reusing the mask storage —
     * zero heap allocations once warm (the hardware keeps the pattern
     * bitmask registers resident across windows the same way).
     */
    void assign(std::string_view pattern);
};

/** Result of one window alignment. */
struct WindowResult
{
    bool found = false;    ///< true iff an alignment with <= k edits exists
    int editDistance = 0;  ///< edits of the traceback alignment
    int startPos = 0;      ///< window position where the alignment starts
    Cigar cigar;           ///< read-order edit script
    /** Window positions of the graph characters consumed ('='/'X'/'D'). */
    std::vector<int> textPositions;

    /** Resets to the not-found state, keeping buffer capacity. */
    void
    clear()
    {
        found = false;
        editDistance = 0;
        startPos = 0;
        cigar.clear();
        textPositions.clear();
    }
};

/**
 * Reusable scratch storage for the aligners: per-lane pattern
 * bitmasks, the flat word slab every stream (R columns, pattern masks,
 * virtual sink vectors) is carved from, the per-lane exception lists
 * and dense temporaries of the batch kernel's fixup path, and a
 * per-window result. One AlignScratch is the software image of one
 * BitAlign module's on-chip scratchpad: allocate it once per thread,
 * reuse it for every window of every read, one lane or kBatchLanes at
 * a time. All aligner entry points have overloads that borrow one; the
 * scratch-free overloads remain for convenience and allocate a fresh
 * scratch per call.
 */
struct AlignScratch
{
    /**
     * A position that breaks the fast sweep's single-successor-chain
     * assumption, patched scalar right after its step.
     */
    struct Exception
    {
        int t;                            ///< lane-local step index
        std::span<const uint16_t> succs;  ///< clipped successor deltas
    };

    /** Per-lane masks, rebuilt per window, storage reused (GenASM
     *  uses lane 0). */
    std::array<PatternBitmasks, bitops::kBatchLanes> pm;
    bitops::WordSlab slab; ///< backing store for all status bitvectors
    std::array<std::vector<Exception>, bitops::kBatchLanes> exceptions;
    std::vector<uint64_t> fixup; ///< dense columns of the patch path
    WindowResult window;   ///< per-window result (alignWindowed's loop)
};

/**
 * Aligns a read (pattern) against a linearized subgraph with edit
 * distance threshold k, returning the optimal alignment and traceback.
 *
 * @param text    Linearized, topologically sorted subgraph window
 *                (a LinearizedGraph converts implicitly).
 * @param pattern The read chunk (ACGT, non-empty, any length).
 * @param k       Edit distance threshold (>= 0).
 * @param mode    Start-freedom policy.
 * @throws InputError on empty inputs or negative k.
 */
WindowResult alignWindow(const graph::LinearizedGraphView &text,
                         std::string_view pattern, int k,
                         AlignMode mode = AlignMode::SemiGlobal);

/**
 * Allocation-free variant: all working storage comes from @p scratch
 * and the result is written into @p out (cleared first), so a warm
 * scratch makes the whole window computation heap-silent. Runs the
 * request as a one-lane alignWindowBatch (both are defined in
 * window_batch.cc).
 */
void alignWindow(const graph::LinearizedGraphView &text,
                 std::string_view pattern, int k, AlignMode mode,
                 AlignScratch &scratch, WindowResult &out);

/**
 * Distance-only variant of alignWindow: skips the traceback walk (and
 * its memory traffic), returning only (found, editDistance, startPos).
 * This mirrors the hardware's ability to defer traceback.
 */
WindowResult alignWindowDistanceOnly(const graph::LinearizedGraphView &text,
                                     std::string_view pattern, int k,
                                     AlignMode mode = AlignMode::SemiGlobal);

/** Allocation-free variant of alignWindowDistanceOnly. */
void alignWindowDistanceOnly(const graph::LinearizedGraphView &text,
                             std::string_view pattern, int k,
                             AlignMode mode, AlignScratch &scratch,
                             WindowResult &out);

} // namespace segram::align

#endif // SEGRAM_SRC_ALIGN_BITALIGN_CORE_H
