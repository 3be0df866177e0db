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
 * Gathers one lane's column @p t (all k+1 levels) from the lane-major
 * R stream into a dense one-window layout (dense[d*nw + j]), so the
 * fixup path can run the scalar bitops cell primitives on it.
 */
void
gatherColumn(const uint64_t *rstream, size_t t, size_t levels, size_t nw,
             int lane, uint64_t *dense)
{
    for (size_t d = 0; d < levels; ++d)
        for (size_t j = 0; j < nw; ++j)
            dense[d * nw + j] =
                rstream[((t * levels + d) * nw + j) * kLanes + lane];
}

/** Scatters a dense column back into the lane-major R stream. */
void
scatterColumn(uint64_t *rstream, size_t t, size_t levels, size_t nw,
              int lane, const uint64_t *dense)
{
    for (size_t d = 0; d < levels; ++d)
        for (size_t j = 0; j < nw; ++j)
            rstream[((t * levels + d) * nw + j) * kLanes + lane] =
                dense[d * nw + j];
}

/** Gathers one lane's virtual sink vectors into dense layout. */
void
gatherVirtual(const uint64_t *vstream, size_t levels, size_t nw, int lane,
              uint64_t *dense)
{
    for (size_t d = 0; d < levels; ++d)
        for (size_t j = 0; j < nw; ++j)
            dense[d * nw + j] = vstream[(d * nw + j) * kLanes + lane];
}

/**
 * Recomputes one lane's column @p t exactly, on densely gathered
 * successor columns: the first successor (or the virtual sink vectors
 * of an interior sink) initializes each level with shiftLeftOneOr /
 * fusedCell, every further successor ANDs in its D & S and M terms.
 * Overwrites whatever the fast single-successor sweep left in that
 * lane — the fixup runs before step t+1 reads column t, so downstream
 * state stays exact. The pattern masks come from the lane's pm-stream
 * column (already padded to the batch width when the lane's own
 * pattern is narrower). At the mapping path's 1–2 words the scalar
 * word loops are all a vector backend would run, too.
 */
void
fixupColumn(uint64_t *rstream, const uint64_t *vstream,
            const uint64_t *pmstream, size_t t, int k, size_t nw,
            int lane, std::span<const uint16_t> succs,
            std::vector<uint64_t> &temp)
{
    using bitops::andShiftAnd;
    using bitops::fusedCell;
    using bitops::shiftLeftOneOr;
    using bitops::shiftLeftOneOrAnd;
    const size_t levels = static_cast<size_t>(k) + 1;
    const size_t col = levels * nw; // dense words per column
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

    if (succs.empty()) {
        // Interior sink: recurrence against the virtual successor.
        uint64_t *v = out + col;
        gatherVirtual(vstream, levels, nw, lane, v);
        shiftLeftOneOr(out, v, pm, inw);
        for (int d = 1; d <= k; ++d)
            fusedCell(out + d * nw, out + (d - 1) * nw, v + (d - 1) * nw,
                      v + d * nw, pm, inw);
    } else {
        for (size_t s = 0; s < succs.size(); ++s)
            gatherColumn(rstream, t - succs[s], levels, nw, lane,
                         out + (1 + s) * col);
        const uint64_t *s0 = out + col;
        shiftLeftOneOr(out, s0, pm, inw);
        for (size_t s = 1; s < succs.size(); ++s)
            shiftLeftOneOrAnd(out, out + (1 + s) * col, pm, inw);
        for (int d = 1; d <= k; ++d) {
            uint64_t *rd = out + d * nw;
            fusedCell(rd, out + (d - 1) * nw, s0 + (d - 1) * nw,
                      s0 + d * nw, pm, inw);
            for (size_t s = 1; s < succs.size(); ++s) {
                const uint64_t *ss = out + (1 + s) * col;
                andShiftAnd(rd, ss + (d - 1) * nw, inw); // D & S
                shiftLeftOneOrAnd(rd, ss + d * nw, pm, inw); // M
            }
        }
    }
    scatterColumn(rstream, t, levels, nw, lane, out);
}

/**
 * Bit-probe accessor binding the shared find/traceback walks to one
 * lane of the lane-major R stream. Step index t = n-1-i converts the
 * walk's position-major view into the stream's step-major storage.
 */
struct BatchAccessor
{
    const uint64_t *rstream;
    const uint64_t *vstream;
    size_t levels;
    size_t nw;
    int n;
    int lane;
    int msb_word;
    uint64_t msb_mask;

    uint64_t
    word(int i, int d, int j) const
    {
        const size_t t = static_cast<size_t>(n - 1 - i);
        return rstream[((t * levels + d) * nw + j) * kLanes + lane];
    }
    bool
    msbClear(int i, int d) const
    {
        return !(word(i, d, msb_word) & msb_mask);
    }
    bool
    rBitClear(int i, int d, int b) const
    {
        return !((word(i, d, b >> 6) >> (b & 63)) & 1);
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
 * the best-hit scan (alignWindowDistanceOnly): found, editDistance and
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

    const size_t levels = static_cast<size_t>(k) + 1;
    const size_t lane_words = static_cast<size_t>(nw) * kLanes;
    const size_t col_words = levels * lane_words;
    const size_t r_words = static_cast<size_t>(n_max) * col_words;
    const size_t pm_words = static_cast<size_t>(n_max) * lane_words;
    const size_t v_words = levels * lane_words;
    using bitops::WordSlab;
    scratch.slab.reset(WordSlab::padded(r_words) +
                       WordSlab::padded(pm_words) +
                       WordSlab::padded(v_words));
    uint64_t *rstream = scratch.slab.take(r_words);
    uint64_t *pmstream = scratch.slab.take(pm_words);
    uint64_t *vstream = scratch.slab.take(v_words);

    // Virtual sink vectors, lane-major. Idle and retired lanes keep
    // all-ones (their R garbage is never probed). At edit level d, a
    // pattern suffix of length <= d can still be consumed past the text
    // end using insertions only, so active lane w clears bits
    // [0, min(d, m_w)).
    bitops::fillOnes(vstream, static_cast<int>(v_words));
    for (int w = 0; w < count; ++w) {
        const int m_w = scratch.pm[w].m;
        for (int d = 0; d <= k; ++d)
            for (int b = 0; b < std::min(d, m_w); ++b)
                vstream[(static_cast<size_t>(d) * nw + (b >> 6)) * kLanes +
                        w] &= ~(uint64_t{1} << (b & 63));
    }

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

    // The fast sweep: one fused batchColumn call per step advances all
    // k+1 levels of every lane at once, with the cross-level inputs
    // chained in registers. Step 0 runs against the virtual sink
    // vectors, every later step against the previous column (the
    // delta-1 successor). Exceptional lanes are patched immediately
    // after their step.
    const bitops::KernelOps &ops = bitops::kernels();
    size_t cursor[kLanes] = {};
    for (int t = 0; t < n_max; ++t) {
        uint64_t *col = rstream + static_cast<size_t>(t) * col_words;
        const uint64_t *prev = t == 0 ? vstream : col - col_words;
        const uint64_t *pmt = pmstream + static_cast<size_t>(t) * lane_words;
        ops.batchColumn(col, prev, pmt, nw, static_cast<int>(levels));
        for (int w = 0; w < count; ++w) {
            const auto &exc = scratch.exceptions[w];
            if (cursor[w] < exc.size() &&
                exc[cursor[w]].t == t) {
                fixupColumn(rstream, vstream, pmstream,
                            static_cast<size_t>(t), k,
                            static_cast<size_t>(nw), w,
                            exc[cursor[w]].succs, scratch.fixup);
                ++cursor[w];
            }
        }
    }

    // Per-lane find + traceback: each lane's walk reads only its own
    // bits, so a lane's output is independent of its batch mates.
    for (int w = 0; w < count; ++w) {
        WindowResult &result = *results[w];
        result.clear();
        const WindowedAlignStream::Request &req = *requests[w];
        const int msb = scratch.pm[w].m - 1;
        const BatchAccessor acc{rstream,
                                vstream,
                                levels,
                                static_cast<size_t>(nw),
                                req.window.size(),
                                w,
                                msb >> 6,
                                uint64_t{1} << (msb & 63)};
        int start = 0;
        const int dist =
            detail::findBestStart(acc, req.window.size(), k, req.mode,
                                  &start);
        if (dist < 0)
            continue;
        result.found = true;
        result.startPos = start;
        result.editDistance = dist;
        if (!traceback)
            continue;
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
