#include "src/align/window_batch.h"

#include <algorithm>

#include "src/align/bitalign_walk.h"
#include "src/util/check.h"

namespace segram::align
{

namespace
{

constexpr int kLanes = bitops::kBatchLanes;

/**
 * Levels per sweep block. Block b runs the register-chained
 * batchColumn over levels [8b, 8b+8) of every column, and the batch
 * stops after the first block in which every lane has found its hit,
 * so it computes at most seven levels past its slowest lane's hit.
 */
constexpr int kLevelBlock = 8;

/**
 * Gathers levels [lo, hi) of one lane's column @p t from the
 * lane-major R stream into a dense one-window layout
 * (dense[(d-lo)*nw + j]), so the fixup path can run the scalar bitops
 * cell primitives on it.
 */
void
gatherColumn(const uint64_t *rstream, size_t t, size_t levels, size_t nw,
             size_t lo, size_t hi, int lane, uint64_t *dense)
{
    for (size_t d = lo; d < hi; ++d)
        for (size_t j = 0; j < nw; ++j)
            dense[(d - lo) * nw + j] =
                rstream[((t * levels + d) * nw + j) * kLanes + lane];
}

/** Scatters dense levels [lo, hi) back into the lane-major R stream. */
void
scatterColumn(uint64_t *rstream, size_t t, size_t levels, size_t nw,
              size_t lo, size_t hi, int lane, const uint64_t *dense)
{
    for (size_t d = lo; d < hi; ++d)
        for (size_t j = 0; j < nw; ++j)
            rstream[((t * levels + d) * nw + j) * kLanes + lane] =
                dense[(d - lo) * nw + j];
}

/** Gathers levels [lo, hi) of one lane's virtual sink vectors. */
void
gatherVirtual(const uint64_t *vstream, size_t nw, size_t lo, size_t hi,
              int lane, uint64_t *dense)
{
    for (size_t d = lo; d < hi; ++d)
        for (size_t j = 0; j < nw; ++j)
            dense[(d - lo) * nw + j] = vstream[(d * nw + j) * kLanes + lane];
}

/**
 * Writes levels [lo, hi) of the virtual sink vectors, lane-major, one
 * word at a time. At edit level d a pattern suffix of length <= d can
 * still be consumed past the text end using insertions only, so active
 * lane w clears bits [0, min(d, m_w)). Idle lanes get all-ones (their
 * R garbage is never probed).
 */
void
fillSinkRows(uint64_t *vstream, const AlignScratch &scratch, int count,
             size_t nw, int lo, int hi)
{
    for (int d = lo; d < hi; ++d) {
        uint64_t *row = vstream + static_cast<size_t>(d) * nw * kLanes;
        for (size_t j = 0; j < nw; ++j) {
            for (int w = 0; w < kLanes; ++w) {
                // Bits of this word that lane w clears: [0, clear).
                const int clear =
                    w < count ? std::min(d, scratch.pm[w].m) -
                                    static_cast<int>(j) * 64
                              : 0;
                row[j * kLanes + w] = clear >= 64 ? 0
                                      : clear > 0 ? ~uint64_t{0} << clear
                                                  : ~uint64_t{0};
            }
        }
    }
}

/**
 * Recomputes levels [first, end) of one lane's column @p t exactly, on
 * densely gathered successor columns: the first successor (or the
 * virtual sink vectors of an interior sink) initializes each level
 * with shiftLeftOneOr / fusedCell, every further successor ANDs in its
 * D & S and M terms. A block above level 0 seeds the chain with the
 * column's own level first-1 and its sources' level first-1, which the
 * previous block left exact. Overwrites whatever the fast
 * single-successor sweep left in that lane — the fixup runs before
 * step t+1 reads column t, so downstream state stays exact. The
 * pattern masks come from the lane's pm-stream column (already padded
 * to the batch width when the lane's own pattern is narrower). At the
 * mapping path's 1–2 words the scalar word loops are all a vector
 * backend would run, too.
 */
void
fixupColumn(uint64_t *rstream, const uint64_t *vstream,
            const uint64_t *pmstream, size_t t, size_t levels, size_t nw,
            int lane, int first, int end, std::span<const uint16_t> succs,
            std::vector<uint64_t> &temp)
{
    using bitops::andShiftAnd;
    using bitops::fusedCell;
    using bitops::shiftLeftOneOr;
    using bitops::shiftLeftOneOrAnd;
    // Dense stacks hold levels [base, end).
    const int base = first == 0 ? 0 : first - 1;
    const size_t lo = static_cast<size_t>(base);
    const size_t hi = static_cast<size_t>(end);
    const size_t col = (hi - lo) * nw; // dense words per stack
    const auto row = [&](auto *stack, int d) {
        return stack + static_cast<size_t>(d - base) * nw;
    };
    // Slot 0 is the recomputed output column; slot 1+s holds successor
    // s (or the virtual sink vectors when there is no successor); the
    // lane's batch-width pattern masks sit after the last source.
    const size_t nsrc = std::max<size_t>(succs.size(), 1);
    temp.resize((1 + nsrc) * col + nw);
    uint64_t *out = temp.data();
    uint64_t *pm = out + (1 + nsrc) * col;
    for (size_t j = 0; j < nw; ++j)
        pm[j] = pmstream[(t * nw + j) * kLanes + lane];
    const int inw = static_cast<int>(nw);
    if (first > 0)
        gatherColumn(rstream, t, levels, nw, lo, lo + 1, lane, out);

    if (succs.empty()) {
        // Interior sink: recurrence against the virtual successor.
        uint64_t *v = out + col;
        gatherVirtual(vstream, nw, lo, hi, lane, v);
        if (first == 0)
            shiftLeftOneOr(out, v, pm, inw);
        for (int d = std::max(first, 1); d < end; ++d)
            fusedCell(row(out, d), row(out, d - 1), row(v, d - 1),
                      row(v, d), pm, inw);
    } else {
        for (size_t s = 0; s < succs.size(); ++s)
            gatherColumn(rstream, t - succs[s], levels, nw, lo, hi, lane,
                         out + (1 + s) * col);
        const uint64_t *s0 = out + col;
        if (first == 0) {
            shiftLeftOneOr(out, s0, pm, inw);
            for (size_t s = 1; s < succs.size(); ++s)
                shiftLeftOneOrAnd(out, out + (1 + s) * col, pm, inw);
        }
        for (int d = std::max(first, 1); d < end; ++d) {
            uint64_t *rd = row(out, d);
            fusedCell(rd, row(out, d - 1), row(s0, d - 1), row(s0, d), pm,
                      inw);
            for (size_t s = 1; s < succs.size(); ++s) {
                const uint64_t *ss = out + (1 + s) * col;
                andShiftAnd(rd, row(ss, d - 1), inw); // D & S
                shiftLeftOneOrAnd(rd, row(ss, d), pm, inw); // M
            }
        }
    }
    scatterColumn(rstream, t, levels, nw, static_cast<size_t>(first), hi,
                  lane, row(out, first));
}

/**
 * One lane's side of the hit scan: where its whole-read bit (bit m-1)
 * sits in a lane-major row, which steps are admissible starts, and the
 * best hit found so far.
 */
struct LaneHit
{
    size_t at = 0;     ///< msb word's index in a row (group*kLanes+lane)
    uint64_t mask = 0; ///< the msb; 0 for idle lanes and found lanes
    unsigned from = 0; ///< admissible steps are [from, from + span)
    unsigned span = 0;
    int d = -1; ///< hit level, -1 while none
    int t = 0;  ///< hit step: start position n-1-t
};

/**
 * The hit scan of one level block [first, end): finds, for every lane
 * still searching, the minimum level d in the block at which its
 * whole-read bit is clear at an admissible step, and at that d the
 * smallest start position i (the largest step t): the minimum distance
 * first, then the earliest start.
 *
 * R is monotone in d: every factor of the recurrence at level d is a
 * subset (in set bits) of its factor at level d-1, so a clear bit stays
 * clear at every higher level (an alignment within d-1 edits is also
 * within d). A step therefore holds a hit somewhere in the block iff
 * its whole-read bit is clear at the block's top level, and one test of
 * that row per step, in column order, covers all lanes. Only a step
 * that hits descends the block for the hitting lane.
 *
 * @return The number of lanes whose hit this block found.
 */
int
scanBlock(const uint64_t *rstream, int n_max, size_t col_words,
          size_t lane_words, int first, int end, LaneHit lanes[])
{
    const uint64_t *column = rstream;
    for (int t = 0; t < n_max; ++t, column += col_words) {
        const uint64_t *top =
            column + static_cast<size_t>(end - 1) * lane_words;
        bool hit[kLanes];
        bool any = false;
        for (int w = 0; w < kLanes; ++w) {
            const LaneHit &lane = lanes[w];
            hit[w] = (~top[lane.at] & lane.mask) != 0 &&
                     static_cast<unsigned>(t) - lane.from < lane.span;
            any |= hit[w];
        }
        if (!any)
            continue;
        for (int w = 0; w < kLanes; ++w) {
            if (!hit[w])
                continue;
            LaneHit &lane = lanes[w];
            int d = first;
            while (d < end - 1 &&
                   (column[static_cast<size_t>(d) * lane_words + lane.at] &
                    lane.mask))
                ++d;
            // Steps ascend, so an equal d at a later step is a smaller
            // start position and wins.
            if (lane.d < 0 || d <= lane.d) {
                lane.d = d;
                lane.t = t;
            }
        }
    }
    int found = 0;
    for (int w = 0; w < kLanes; ++w) {
        if (lanes[w].mask != 0 && lanes[w].d >= 0) {
            lanes[w].mask = 0;
            ++found;
        }
    }
    return found;
}

/**
 * Bit-probe accessor binding the shared traceback walk to one lane of
 * the lane-major R stream. Step index t = n-1-i converts the walk's
 * position-major view into the stream's step-major storage.
 */
struct BatchAccessor
{
    const uint64_t *rstream;
    const uint64_t *vstream;
    size_t levels;
    size_t nw;
    int n;
    int lane;

    bool
    rBitClear(int i, int d, int b) const
    {
        const size_t t = static_cast<size_t>(n - 1 - i);
        const size_t at = ((t * levels + d) * nw + (b >> 6)) * kLanes + lane;
        return !((rstream[at] >> (b & 63)) & 1);
    }
    bool
    virtualBitClear(int d, int b) const
    {
        const size_t at =
            (static_cast<size_t>(d) * nw + (b >> 6)) * kLanes + lane;
        return !((vstream[at] >> (b & 63)) & 1);
    }
};

/**
 * alignWindowBatch proper. @p traceback false stops every lane after
 * the hit scan (alignWindowDistanceOnly): found, editDistance and
 * startPos only.
 */
void
alignLanes(const WindowedAlignStream::Request *const requests[],
           WindowResult *const results[], int count, bool traceback,
           AlignScratch &scratch)
{
    SEGRAM_CHECK(count >= 1 && count <= kLanes,
                 "batch size must be in [1, kBatchLanes]");
    const int k = requests[0]->k;
    SEGRAM_CHECK(k >= 0, "edit distance threshold must be >= 0");

    // Lanes may differ in pattern width; the batch runs at the widest
    // lane's word count and narrower lanes ride padded (their pm words
    // above their own width stay all-ones, and no probe ever touches a
    // bit at or above their pattern length, so padding is invisible in
    // the output).
    int nw = 0;
    int n_max = 0;
    for (int w = 0; w < count; ++w) {
        const WindowedAlignStream::Request &req = *requests[w];
        scratch.pm[w].assign(req.pattern); // validates the pattern
        SEGRAM_CHECK(req.window.size() > 0, "window text must be non-empty");
        SEGRAM_CHECK(req.k == k, "batched windows must share the edit cap");
        nw = std::max(nw, scratch.pm[w].nwords);
        n_max = std::max(n_max, req.window.size());
    }

    const int levels = k + 1;
    const size_t lane_words = static_cast<size_t>(nw) * kLanes;
    const size_t col_words = static_cast<size_t>(levels) * lane_words;
    const size_t r_words = static_cast<size_t>(n_max) * col_words;
    const size_t pm_words = static_cast<size_t>(n_max) * lane_words;
    const size_t v_words = static_cast<size_t>(levels) * lane_words;
    using bitops::WordSlab;
    scratch.slab.reset(WordSlab::padded(r_words) +
                       WordSlab::padded(pm_words) +
                       WordSlab::padded(v_words));
    uint64_t *rstream = scratch.slab.take(r_words);
    uint64_t *pmstream = scratch.slab.take(pm_words);
    uint64_t *vstream = scratch.slab.take(v_words);

    // Pattern-mask stream: step t of lane w carries PM[char at position
    // n_w-1-t]. Steps past a lane's end (and idle lanes) stay all-ones.
    // While walking, record every position that breaks the fast sweep's
    // single-successor-chain assumption. Step 0 is uniformly the sink
    // column (views clip out-of-range hops), so it is never recorded.
    bitops::fillOnes(pmstream, static_cast<int>(pm_words));
    for (int w = 0; w < count; ++w) {
        scratch.exceptions[w].clear();
        const graph::LinearizedGraphView &view = requests[w]->window;
        const int n_w = view.size();
        const int lane_nw = scratch.pm[w].nwords;
        for (int t = 0; t < n_w; ++t) {
            const int i = n_w - 1 - t;
            const uint64_t *mask = scratch.pm[w].masks[view.code(i)].data();
            // Words at or above the lane's own width keep the all-ones
            // prefill (all-mismatch padding; see the width note above).
            for (int j = 0; j < lane_nw; ++j)
                pmstream[(static_cast<size_t>(t) * nw + j) * kLanes + w] =
                    mask[j];
            if (t > 0) {
                const auto succs = view.successorDeltas(i);
                if (!(succs.size() == 1 && succs[0] == 1))
                    scratch.exceptions[w].push_back({t, succs});
            }
        }
    }

    // Each lane's admissible starts: every position of its own window,
    // or position 0 (its last step) alone when Anchored.
    LaneHit hits[kLanes];
    for (int w = 0; w < count; ++w) {
        const WindowedAlignStream::Request &req = *requests[w];
        const int msb = scratch.pm[w].m - 1;
        const int n_w = req.window.size();
        hits[w].at = static_cast<size_t>(msb >> 6) * kLanes + w;
        hits[w].mask = uint64_t{1} << (msb & 63);
        const bool anchored = req.mode == AlignMode::Anchored;
        hits[w].from = anchored ? static_cast<unsigned>(n_w - 1) : 0;
        hits[w].span = anchored ? 1 : static_cast<unsigned>(n_w);
    }

    // The level-blocked sweep. Each block fills its virtual sink rows,
    // then runs one fused batchColumn call per step over the block's
    // levels of every lane, with the cross-level inputs chained in
    // registers: step 0 against the virtual sink vectors, every later
    // step against the previous column (the delta-1 successor).
    // Exceptional lanes are patched right after their step. Levels up
    // to d do not depend on the levels above d, so the batch stops
    // after the block in which its last searching lane finds its hit;
    // a lane with no hit at level k is not found.
    const bitops::KernelOps &ops = bitops::kernels();
    int searching = count;
    for (int first = 0; first < levels && searching > 0;
         first += kLevelBlock) {
        const int end = std::min(first + kLevelBlock, levels);
        fillSinkRows(vstream, scratch, count, static_cast<size_t>(nw),
                     first, end);
        size_t cursor[kLanes] = {};
        for (int t = 0; t < n_max; ++t) {
            uint64_t *col = rstream + static_cast<size_t>(t) * col_words;
            const uint64_t *prev = t == 0 ? vstream : col - col_words;
            const uint64_t *pmt =
                pmstream + static_cast<size_t>(t) * lane_words;
            ops.batchColumn(col, prev, pmt, nw, first, end);
            for (int w = 0; w < count; ++w) {
                const auto &exc = scratch.exceptions[w];
                if (cursor[w] < exc.size() && exc[cursor[w]].t == t) {
                    fixupColumn(rstream, vstream, pmstream,
                                static_cast<size_t>(t),
                                static_cast<size_t>(levels),
                                static_cast<size_t>(nw), w, first, end,
                                exc[cursor[w]].succs, scratch.fixup);
                    ++cursor[w];
                }
            }
        }
        searching -= scanBlock(rstream, n_max, col_words, lane_words,
                               first, end, hits);
    }

    // Per-lane traceback: each lane's walk reads only its own bits at
    // levels <= its hit, so a lane's output is independent of its batch
    // mates and of the blocks the sweep skipped.
    for (int w = 0; w < count; ++w) {
        WindowResult &result = *results[w];
        result.clear();
        if (hits[w].d < 0)
            continue;
        const WindowedAlignStream::Request &req = *requests[w];
        const int n_w = req.window.size();
        const int start = n_w - 1 - hits[w].t;
        const int dist = hits[w].d;
        result.found = true;
        result.startPos = start;
        result.editDistance = dist;
        if (!traceback)
            continue;
        const BatchAccessor acc{rstream, vstream, static_cast<size_t>(levels),
                                static_cast<size_t>(nw), n_w, w};
        detail::tracebackWalk(acc, req.window, scratch.pm[w], start, dist,
                              &result);
        SEGRAM_DCHECK(static_cast<int>(result.cigar.editDistance()) == dist,
                      "traceback must realize the minimal distance");
        result.editDistance = static_cast<int>(result.cigar.editDistance());
    }
}

/** One request through alignLanes at one lane. */
void
alignOneLane(const graph::LinearizedGraphView &text,
             std::string_view pattern, int k, AlignMode mode,
             bool traceback, AlignScratch &scratch, WindowResult &out)
{
    const WindowedAlignStream::Request request{text, pattern, k, mode};
    const WindowedAlignStream::Request *requests[] = {&request};
    WindowResult *results[] = {&out};
    alignLanes(requests, results, 1, traceback, scratch);
}

} // namespace

void
alignWindowBatch(const WindowedAlignStream::Request *const requests[],
                 WindowResult *const results[], int count,
                 AlignScratch &scratch)
{
    alignLanes(requests, results, count, true, scratch);
}

WindowResult
alignWindow(const graph::LinearizedGraphView &text,
            std::string_view pattern, int k, AlignMode mode)
{
    AlignScratch scratch;
    WindowResult result;
    alignOneLane(text, pattern, k, mode, true, scratch, result);
    return result;
}

void
alignWindow(const graph::LinearizedGraphView &text,
            std::string_view pattern, int k, AlignMode mode,
            AlignScratch &scratch, WindowResult &out)
{
    alignOneLane(text, pattern, k, mode, true, scratch, out);
}

WindowResult
alignWindowDistanceOnly(const graph::LinearizedGraphView &text,
                        std::string_view pattern, int k, AlignMode mode)
{
    AlignScratch scratch;
    WindowResult result;
    alignOneLane(text, pattern, k, mode, false, scratch, result);
    return result;
}

void
alignWindowDistanceOnly(const graph::LinearizedGraphView &text,
                        std::string_view pattern, int k, AlignMode mode,
                        AlignScratch &scratch, WindowResult &out)
{
    alignOneLane(text, pattern, k, mode, false, scratch, out);
}

} // namespace segram::align
