/**
 * @file
 * Lane-batched BitAlign: the one implementation of the Algorithm 1
 * recurrence, computing up to bitops::kBatchLanes *independent* window
 * alignments simultaneously, one per SIMD lane. alignWindow is this
 * routine at one lane.
 *
 * The mapping path's dominant 1–2-word windows would leave most of a
 * vector register idle if the words of one window were the unit of
 * parallelism. This layer fills the lanes instead: the R[i][d] state
 * of kBatchLanes windows is kept lane-major (word group j of lane w at
 * index j*kBatchLanes+w), so one batched sweep advances every window's
 * recurrence at once — the software image of GenASM's multi-PE array
 * and the SeGraM HGA's parallel compute rows, which batch independent
 * recurrences exactly this way.
 *
 * Because windows are independent, each lane steps through its *own*
 * column order: step t of lane w processes that window's position
 * n_w - 1 - t. Step 0 is uniformly the window's sink column (window
 * views clip out-of-range hops, so the last position never has a
 * successor) and runs against the virtual sink vectors; every later
 * step assumes the common single-successor chain (delta 1, i.e. the
 * previous step's column). Positions that break that assumption —
 * hop fan-outs, non-unit deltas, interior sinks — are recorded while
 * the pattern-mask stream is built and patched immediately after the
 * fast sweep of their step: the lane's column is re-computed with the
 * scalar bitops cell primitives on densely gathered inputs and
 * scattered back. The patch runs before step t+1 reads column t, so
 * downstream state is always exact, and traceback (bitalign_walk.h)
 * walks the finished R bits lane by lane.
 *
 * The sweep runs in blocks of 8 edit levels: block b advances levels
 * [8b, 8b+8) of every column (patching exceptional columns inside
 * every block), then one scan of the block's top row finds which
 * lanes hit, and the batch stops after the first block in which every
 * lane has its hit. Levels d <= k' do not depend on the levels above,
 * so the skipped levels change no output: a lane's hit (minimum d,
 * then smallest start) and its traceback, which reads levels <= d
 * only, are those of the full k+1-level sweep.
 *
 * Lanes whose window is shorter than the longest in the batch retire
 * early: their pattern-mask stream is padded with all-ones, the fast
 * sweep keeps computing harmless garbage in their lane (masked
 * retirement without masks — the garbage is simply never read; the
 * hit scan and traceback stop at the lane's own n_w), and no
 * exception is ever recorded past a lane's end. Idle lanes of a short
 * batch (one lane for alignWindow) ride along the same way.
 */

#ifndef SEGRAM_SRC_ALIGN_WINDOW_BATCH_H
#define SEGRAM_SRC_ALIGN_WINDOW_BATCH_H

#include "src/align/bitalign.h"
#include "src/align/bitalign_core.h"

namespace segram::align
{

/**
 * Aligns @p count (1..kBatchLanes) independent window requests at
 * once and writes each lane's WindowResult. A request's result depends
 * on neither its lane, the other lanes, nor the kernel backend, so a
 * batch equals alignWindow on every request individually.
 *
 * All requests must share the edit cap k; text lengths, pattern
 * lengths, and alignment modes may differ freely. The batch runs at
 * the widest lane's word count — narrower lanes ride padded with
 * all-ones (all-mismatch) pattern-mask words, which no probe of
 * theirs ever reads, so mixed-width batches stay bit-identical too.
 *
 * @throws InputError on empty patterns/windows, non-ACGT patterns,
 *         negative k, mismatched k, or count out of range.
 */
void alignWindowBatch(const WindowedAlignStream::Request *const requests[],
                      WindowResult *const results[], int count,
                      AlignScratch &scratch);

} // namespace segram::align

#endif // SEGRAM_SRC_ALIGN_WINDOW_BATCH_H
