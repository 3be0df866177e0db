/**
 * @file
 * The backend-independent half of one BitAlign window: the traceback
 * bit-walk (Algorithm 1 line 25), written once against a tiny
 * bit-probe accessor.
 *
 * One storage layout feeds the walk: the lane-batched kernel's
 * lane-major R stream (struct-of-arrays across kBatchLanes windows),
 * probed one lane at a time through window_batch.cc's accessor, after
 * that file's hit scan has chosen the walk's start and distance d. The
 * accessor keeps the 4-way M/S/D/I preference logic independent of
 * that layout, and lets a walk read nothing but its own lane's bits.
 * The walk reads levels <= d only, so the levels a level-blocked sweep
 * skipped past the hit are never touched.
 *
 * Accessor contract (all probes are of active-low bits; "clear" means
 * the alignment predicate holds):
 *   bool rBitClear(int i, int d, int b) — bit b of R[i][d]
 *   bool virtualBitClear(int d, int b)  — bit b of the virtual sink
 *                                         successor vector at level d
 */

#ifndef SEGRAM_SRC_ALIGN_BITALIGN_WALK_H
#define SEGRAM_SRC_ALIGN_BITALIGN_WALK_H

#include <cstdint>

#include "src/align/bitalign_core.h"
#include "src/graph/linearize.h"
#include "src/util/bitvector.h"
#include "src/util/check.h"

namespace segram::align::detail
{

/**
 * Regenerates the traceback from state (start, d): walks the stored R
 * vectors, re-deriving which of the M/S/D/I terms produced each 0 bit.
 * Preference order (Match, then Substitution on a true mismatch, then
 * Deletion, then Insertion) is part of the output contract — every
 * storage backend must walk it identically.
 */
template <class Acc>
void
tracebackWalk(const Acc &acc, const graph::LinearizedGraphView &text,
              const PatternBitmasks &pattern, int start, int d,
              WindowResult *result)
{
    using bitops::testBit;

    int b = pattern.m - 1; // current read char is m-1-b
    int pos = start;
    Cigar &cigar = result->cigar;
    // Each step consumes a read char and/or one unit of edit budget.
    const int max_steps = pattern.m + d + 2;
    for (int step = 0; step < max_steps; ++step) {
        SEGRAM_DCHECK(acc.rBitClear(pos, d, b),
                      "walk position must be an active R-bit");
        const uint64_t *pm = pattern.masks[text.code(pos)].data();
        const auto succs = text.successorDeltas(pos);
        const bool is_sink = succs.empty();
        const bool char_match = !testBit(pm, b);

        // Moving past a sink: the remaining read suffix (length b
        // after the move) is consumed by trailing insertions.
        const auto finish_past_sink = [&](int remaining) {
            cigar.push(EditOp::Insertion,
                       static_cast<uint32_t>(remaining));
        };

        // 1. Match: cheapest, always preferred.
        if (char_match) {
            if (b == 0) {
                cigar.push(EditOp::Match);
                result->textPositions.push_back(pos);
                return;
            }
            bool taken = false;
            for (const uint16_t delta : succs) {
                if (acc.rBitClear(pos + delta, d, b - 1)) {
                    cigar.push(EditOp::Match);
                    result->textPositions.push_back(pos);
                    pos += delta;
                    --b;
                    taken = true;
                    break;
                }
            }
            if (taken)
                continue;
            if (is_sink && acc.virtualBitClear(d, b - 1)) {
                cigar.push(EditOp::Match);
                result->textPositions.push_back(pos);
                finish_past_sink(b);
                return;
            }
        }
        // 2. Substitution (only on a true mismatch, so the CIGAR
        //    stays consistent with the sequences).
        if (d > 0 && !char_match) {
            if (b == 0) {
                cigar.push(EditOp::Substitution);
                result->textPositions.push_back(pos);
                return;
            }
            bool taken = false;
            for (const uint16_t delta : succs) {
                if (acc.rBitClear(pos + delta, d - 1, b - 1)) {
                    cigar.push(EditOp::Substitution);
                    result->textPositions.push_back(pos);
                    pos += delta;
                    --b;
                    --d;
                    taken = true;
                    break;
                }
            }
            if (taken)
                continue;
            if (is_sink && acc.virtualBitClear(d - 1, b - 1)) {
                cigar.push(EditOp::Substitution);
                result->textPositions.push_back(pos);
                finish_past_sink(b);
                return;
            }
        }
        // 3. Deletion: consume the graph char, keep the read char.
        if (d > 0) {
            bool taken = false;
            for (const uint16_t delta : succs) {
                if (acc.rBitClear(pos + delta, d - 1, b)) {
                    cigar.push(EditOp::Deletion);
                    result->textPositions.push_back(pos);
                    pos += delta;
                    --d;
                    taken = true;
                    break;
                }
            }
            if (taken)
                continue;
            if (is_sink && acc.virtualBitClear(d - 1, b)) {
                cigar.push(EditOp::Deletion);
                result->textPositions.push_back(pos);
                finish_past_sink(b + 1);
                return;
            }
        }
        // 4. Insertion: consume the read char in place.
        if (d > 0) {
            if (b == 0) {
                cigar.push(EditOp::Insertion);
                return;
            }
            if (acc.rBitClear(pos, d - 1, b - 1)) {
                cigar.push(EditOp::Insertion);
                --b;
                --d;
                continue;
            }
        }
        SEGRAM_DCHECK(false, "traceback found no consistent predecessor");
        return;
    }
    SEGRAM_DCHECK(false, "traceback exceeded its step bound");
}

} // namespace segram::align::detail

#endif // SEGRAM_SRC_ALIGN_BITALIGN_WALK_H
