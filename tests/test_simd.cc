/**
 * @file
 * Equivalence tests for the bitops kernel layer.
 *
 * Every primitive is pure integer bit manipulation, so every backend
 * must agree bit-for-bit on every input — this is the property that
 * lets the mapper swap kernels without changing a single PAF byte. The
 * lane-batched KernelOps entries are checked against the scalar table
 * and, lane by lane, against the bitvector.h free functions (the one
 * scalar copy of the per-window primitives); the fused free functions
 * are checked against their composed definitions. The fuzz loops cover
 * word-boundary edges, random payloads and the documented dst==src
 * aliasing cases. The suite runs under the sanitizer CI job, so
 * out-of-bounds vector tails or unaligned-load UB fail loudly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/bitops_simd.h"
#include "src/util/bitvector.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace
{

using namespace segram;

/** Widths that exercise word boundaries and vector-block tails. */
const std::vector<int> kEdgeWidths = {1,   2,   63,  64,  65,  127,
                                      128, 129, 191, 192, 255, 256,
                                      257, 319, 383, 447, 511, 512};

std::vector<uint64_t>
randomWords(Rng &rng, int nwords)
{
    std::vector<uint64_t> words(static_cast<size_t>(nwords));
    for (auto &word : words)
        word = rng.nextU64();
    return words;
}

struct Backend
{
    const bitops::KernelOps *ops;
    const char *name;
};

/** Scalar always; the SIMD table when this build + CPU provide one. */
std::vector<Backend>
backends()
{
    std::vector<Backend> list = {{&bitops::scalarKernels(), "scalar"}};
    if (const bitops::KernelOps *simd = bitops::simdKernels())
        list.push_back(
            {simd, bitops::backendName(bitops::simdBackend())});
    return list;
}

TEST(SimdKernels, DispatchIsConsistent)
{
    // kernels() must hand back either the scalar table or the SIMD
    // table, and activeBackend() must describe the same choice.
    const bitops::KernelOps &active = bitops::kernels();
    if (bitops::activeBackend() == bitops::KernelBackend::Scalar) {
        EXPECT_EQ(&active, &bitops::scalarKernels());
        EXPECT_STREQ(bitops::activeBackendName(), "scalar");
    } else {
        EXPECT_EQ(&active, bitops::simdKernels());
        EXPECT_EQ(bitops::activeBackend(), bitops::simdBackend());
    }
}

TEST(SimdKernels, FusedOpsMatchComposedDefinitions)
{
    // The fused free functions are defined in terms of the simple
    // ones; verify the definitions hold at every edge width.
    Rng rng(0xf05ed);
    for (const int width : kEdgeWidths) {
        const int nwords = bitops::wordsForWidth(width);
        const auto src = randomWords(rng, nwords);
        const auto mask = randomWords(rng, nwords);
        const auto init = randomWords(rng, nwords);
        std::vector<uint64_t> tmp(static_cast<size_t>(nwords));

        // shiftLeftOneOrAnd == shiftLeftOneOr into tmp, then AND.
        std::vector<uint64_t> composed = init;
        bitops::shiftLeftOneOr(tmp.data(), src.data(), mask.data(),
                               nwords);
        bitops::andInPlace(composed.data(), tmp.data(), nwords);
        std::vector<uint64_t> fused = init;
        bitops::shiftLeftOneOrAnd(fused.data(), src.data(), mask.data(),
                                  nwords);
        EXPECT_EQ(composed, fused) << "shiftLeftOneOrAnd, width "
                                   << width;

        // andShiftAnd == AND src, then AND (src << 1).
        composed = init;
        bitops::andInPlace(composed.data(), src.data(), nwords);
        bitops::shiftLeftOne(tmp.data(), src.data(), nwords);
        bitops::andInPlace(composed.data(), tmp.data(), nwords);
        fused = init;
        bitops::andShiftAnd(fused.data(), src.data(), nwords);
        EXPECT_EQ(composed, fused) << "andShiftAnd, width " << width;

        // fusedCell == I & D & S & M built from the simple ops.
        const auto ds = randomWords(rng, nwords);
        const auto match = randomWords(rng, nwords);
        bitops::shiftLeftOne(composed.data(), init.data(), nwords); // I
        bitops::andInPlace(composed.data(), ds.data(), nwords);     // & D
        bitops::andShiftAnd(composed.data(), ds.data(), nwords); // & S
        bitops::shiftLeftOneOrAnd(composed.data(), match.data(),
                                  mask.data(), nwords); // & M
        fused.resize(static_cast<size_t>(nwords));
        bitops::fusedCell(fused.data(), init.data(), ds.data(),
                          match.data(), mask.data(), nwords);
        EXPECT_EQ(composed, fused) << "fusedCell, width " << width;
    }
}

TEST(SimdKernels, ShiftingOpsAllowFullDstSrcAliasing)
{
    // The documented contract of the free functions: dst == src (full
    // overlap) is legal for the in-place and shifting ops.
    Rng rng(0xa11a5);
    for (const int width : kEdgeWidths) {
        const int nwords = bitops::wordsForWidth(width);
        const auto src = randomWords(rng, nwords);
        const auto mask = randomWords(rng, nwords);

        std::vector<uint64_t> want(static_cast<size_t>(nwords));
        bitops::shiftLeftOne(want.data(), src.data(), nwords);
        std::vector<uint64_t> aliased = src;
        bitops::shiftLeftOne(aliased.data(), aliased.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased shiftLeftOne, width "
                                 << width;

        bitops::shiftLeftOneOr(want.data(), src.data(), mask.data(),
                               nwords);
        aliased = src;
        bitops::shiftLeftOneOr(aliased.data(), aliased.data(),
                               mask.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased shiftLeftOneOr, width "
                                 << width;

        want = src;
        bitops::shiftLeftOneOrAnd(want.data(), src.data(), mask.data(),
                                  nwords);
        aliased = src;
        bitops::shiftLeftOneOrAnd(aliased.data(), aliased.data(),
                                  mask.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased shiftLeftOneOrAnd, width "
                                 << width;

        want = src;
        bitops::andShiftAnd(want.data(), src.data(), nwords);
        aliased = src;
        bitops::andShiftAnd(aliased.data(), aliased.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased andShiftAnd, width "
                                 << width;
    }
}

/** Extracts lane @p w from a lane-major block of @p nwords groups. */
std::vector<uint64_t>
deinterleave(const std::vector<uint64_t> &lane_major, int nwords, int w)
{
    std::vector<uint64_t> out(static_cast<size_t>(nwords));
    for (int j = 0; j < nwords; ++j)
        out[static_cast<size_t>(j)] =
            lane_major[static_cast<size_t>(j) * bitops::kBatchLanes + w];
    return out;
}

TEST(BatchKernels, BatchOpsMatchScalarOnAllPerLaneWidths)
{
    Rng rng(0xba7c4);
    const auto &scalar = bitops::scalarKernels();
    constexpr int kLanes = bitops::kBatchLanes;
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            const int total = nwords * kLanes;
            const auto ins = randomWords(rng, total);
            const auto ds = randomWords(rng, total);
            const auto match = randomWords(rng, total);
            const auto pm = randomWords(rng, total);

            std::vector<uint64_t> want(static_cast<size_t>(total));
            std::vector<uint64_t> got(static_cast<size_t>(total));
            scalar.batchShiftLeftOneOr(want.data(), ins.data(),
                                       pm.data(), nwords);
            backend.ops->batchShiftLeftOneOr(got.data(), ins.data(),
                                             pm.data(), nwords);
            ASSERT_EQ(want, got) << "batchShiftLeftOneOr, backend "
                                 << backend.name << ", nwords "
                                 << nwords;

            scalar.batchFusedCell(want.data(), ins.data(), ds.data(),
                                  match.data(), pm.data(), nwords);
            backend.ops->batchFusedCell(got.data(), ins.data(),
                                        ds.data(), match.data(),
                                        pm.data(), nwords);
            ASSERT_EQ(want, got) << "batchFusedCell, backend "
                                 << backend.name << ", nwords "
                                 << nwords;
        }
    }
}

TEST(BatchKernels, BatchColumnMatchesScalarAcrossLevels)
{
    Rng rng(0xc01a);
    const auto &scalar = bitops::scalarKernels();
    constexpr int kLanes = bitops::kBatchLanes;
    // levels = k+1; 2 and 33 are the mapping path's common cases and a
    // deep column, 1 is the no-fusedCell degenerate.
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            for (const int levels : {1, 2, 5, 33}) {
                const int L = nwords * kLanes;
                const auto prev = randomWords(rng, levels * L);
                const auto pm = randomWords(rng, L);
                std::vector<uint64_t> want(
                    static_cast<size_t>(levels * L));
                std::vector<uint64_t> got(
                    static_cast<size_t>(levels * L));
                scalar.batchColumn(want.data(), prev.data(), pm.data(),
                                   nwords, 0, levels);
                backend.ops->batchColumn(got.data(), prev.data(),
                                         pm.data(), nwords, 0, levels);
                ASSERT_EQ(want, got)
                    << "batchColumn, backend " << backend.name
                    << ", nwords " << nwords << ", levels " << levels;
            }
        }
    }
}

TEST(BatchKernels, BatchOpsEqualDeinterleavedPerWindowOps)
{
    // The lane-independence contract: each lane of a batched sweep
    // equals the single-window free function run on that lane's
    // extracted vectors — carries never cross lanes.
    Rng rng(0xde1a7e);
    constexpr int kLanes = bitops::kBatchLanes;
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            const int total = nwords * kLanes;
            const auto ins = randomWords(rng, total);
            const auto ds = randomWords(rng, total);
            const auto match = randomWords(rng, total);
            const auto pm = randomWords(rng, total);

            std::vector<uint64_t> shifted(static_cast<size_t>(total));
            std::vector<uint64_t> fused(static_cast<size_t>(total));
            backend.ops->batchShiftLeftOneOr(shifted.data(), ins.data(),
                                             pm.data(), nwords);
            backend.ops->batchFusedCell(fused.data(), ins.data(),
                                        ds.data(), match.data(),
                                        pm.data(), nwords);
            for (int w = 0; w < kLanes; ++w) {
                const auto lins = deinterleave(ins, nwords, w);
                const auto lds = deinterleave(ds, nwords, w);
                const auto lmatch = deinterleave(match, nwords, w);
                const auto lpm = deinterleave(pm, nwords, w);
                std::vector<uint64_t> want(
                    static_cast<size_t>(nwords));
                bitops::shiftLeftOneOr(want.data(), lins.data(),
                                       lpm.data(), nwords);
                ASSERT_EQ(want, deinterleave(shifted, nwords, w))
                    << "batchShiftLeftOneOr lane " << w << ", backend "
                    << backend.name << ", nwords " << nwords;
                bitops::fusedCell(want.data(), lins.data(), lds.data(),
                                  lmatch.data(), lpm.data(), nwords);
                ASSERT_EQ(want, deinterleave(fused, nwords, w))
                    << "batchFusedCell lane " << w << ", backend "
                    << backend.name << ", nwords " << nwords;
            }
        }
    }
}

TEST(BatchKernels, BatchShiftLeftOneOrAllowsFullDstSrcAliasing)
{
    // The stream sweep writes each column over its own source row when
    // the scheduler reuses a retired lane's storage; the documented
    // contract is full dst == src overlap, same as
    // bitops::shiftLeftOneOr.
    Rng rng(0xa11b);
    constexpr int kLanes = bitops::kBatchLanes;
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            const int total = nwords * kLanes;
            const auto src = randomWords(rng, total);
            const auto mask = randomWords(rng, total);
            std::vector<uint64_t> want(static_cast<size_t>(total));
            bitops::scalarKernels().batchShiftLeftOneOr(
                want.data(), src.data(), mask.data(), nwords);
            std::vector<uint64_t> aliased = src;
            backend.ops->batchShiftLeftOneOr(aliased.data(),
                                             aliased.data(),
                                             mask.data(), nwords);
            ASSERT_EQ(want, aliased)
                << "aliased batchShiftLeftOneOr, backend "
                << backend.name << ", nwords " << nwords;
        }
    }
}

TEST(BatchKernels, BatchColumnMatchesComposedDefinition)
{
    // batchColumn is defined as batchShiftLeftOneOr + a batchFusedCell
    // per level with register-chained inputs; verify the definition on
    // every backend (the fusion must not change a bit).
    Rng rng(0xc0de);
    constexpr int kLanes = bitops::kBatchLanes;
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            for (const int levels : {1, 2, 33}) {
                const int L = nwords * kLanes;
                const auto prev = randomWords(rng, levels * L);
                const auto pm = randomWords(rng, L);
                std::vector<uint64_t> composed(
                    static_cast<size_t>(levels * L));
                backend.ops->batchShiftLeftOneOr(composed.data(),
                                                 prev.data(), pm.data(),
                                                 nwords);
                for (int d = 1; d < levels; ++d)
                    backend.ops->batchFusedCell(
                        composed.data() + d * L,
                        composed.data() + (d - 1) * L,
                        prev.data() + (d - 1) * L, prev.data() + d * L,
                        pm.data(), nwords);
                std::vector<uint64_t> fused(
                    static_cast<size_t>(levels * L));
                backend.ops->batchColumn(fused.data(), prev.data(),
                                         pm.data(), nwords, 0, levels);
                ASSERT_EQ(composed, fused)
                    << "batchColumn vs composed, backend "
                    << backend.name << ", nwords " << nwords
                    << ", levels " << levels;
            }
        }
    }
}

TEST(BatchKernels, BatchColumnLevelBlocksEqualOneCall)
{
    // The level-blocked sweep's contract: levels [0, a) and then
    // [a, b) equal one call over [0, b) on every backend, including
    // the wide (> 2-word) per-level path, and a block call writes no
    // level outside its range.
    Rng rng(0xb10c);
    constexpr int kLanes = bitops::kBatchLanes;
    for (const Backend &backend : backends()) {
        for (const int nwords : {1, 2, 3}) {
            for (const int levels : {2, 9, 17, 33}) {
                const int L = nwords * kLanes;
                const auto prev = randomWords(rng, levels * L);
                const auto pm = randomWords(rng, L);
                std::vector<uint64_t> whole(
                    static_cast<size_t>(levels * L));
                backend.ops->batchColumn(whole.data(), prev.data(),
                                         pm.data(), nwords, 0, levels);
                for (const int a : {1, 8, levels - 1}) {
                    if (a >= levels)
                        continue;
                    // Sentinel fill shows any write outside [0, b).
                    std::vector<uint64_t> split(
                        static_cast<size_t>(levels * L), 0x5a5a5a5aULL);
                    backend.ops->batchColumn(split.data(), prev.data(),
                                             pm.data(), nwords, 0, a);
                    for (size_t at = static_cast<size_t>(a) * L;
                         at < split.size(); ++at)
                        ASSERT_EQ(split[at], 0x5a5a5a5aULL)
                            << "block [0, " << a << ") wrote level "
                            << at / L;
                    backend.ops->batchColumn(split.data(), prev.data(),
                                             pm.data(), nwords, a,
                                             levels);
                    ASSERT_EQ(whole, split)
                        << "batchColumn [0," << a << ") + [" << a << ","
                        << levels << "), backend " << backend.name
                        << ", nwords " << nwords;
                }
            }
        }
    }
}

TEST(WordSlab, CarvesAreCacheLineAligned)
{
    bitops::WordSlab slab;
    // Unaligned-tail word counts on purpose: every take() must still
    // start on a 64-byte boundary regardless of the previous carve.
    for (const size_t carve : {1u, 3u, 7u, 9u, 16u, 17u}) {
        const size_t total = 4 * bitops::WordSlab::padded(carve);
        slab.reset(total);
        for (int i = 0; i < 4; ++i) {
            uint64_t *p = slab.take(carve);
            EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                          bitops::WordSlab::kAlignBytes,
                      0u)
                << "carve " << carve << ", take " << i;
            // The carve must be writable over its full padded extent.
            for (size_t w = 0; w < carve; ++w)
                p[w] = 0;
        }
    }
}

TEST(WordSlab, PaddedRoundsToCarveUnits)
{
    using bitops::WordSlab;
    EXPECT_EQ(WordSlab::padded(0), 0u);
    EXPECT_EQ(WordSlab::padded(1), WordSlab::kAlignWords);
    EXPECT_EQ(WordSlab::padded(WordSlab::kAlignWords),
              WordSlab::kAlignWords);
    EXPECT_EQ(WordSlab::padded(WordSlab::kAlignWords + 1),
              2 * WordSlab::kAlignWords);
}

TEST(WordSlab, WarmResetKeepsCapacity)
{
    bitops::WordSlab slab;
    slab.reset(256);
    const size_t capacity = slab.capacityWords();
    slab.reset(128);
    EXPECT_EQ(slab.capacityWords(), capacity);
    slab.reset(256);
    EXPECT_EQ(slab.capacityWords(), capacity);
}

TEST(WordSlab, TakeBeyondResetCapacityThrows)
{
    using bitops::WordSlab;
    WordSlab slab;
    slab.reset(2 * WordSlab::kAlignWords);
    // Carves within the reset capacity succeed...
    EXPECT_NE(slab.take(WordSlab::kAlignWords), nullptr);
    EXPECT_NE(slab.take(WordSlab::kAlignWords), nullptr);
    // ...and the first word past it is diagnosed, not written.
    EXPECT_THROW(slab.take(1), InputError);

    // A single over-large carve on a fresh reset is also caught, even
    // when earlier resets grew the backing vector beyond the request.
    slab.reset(WordSlab::kAlignWords);
    EXPECT_THROW(slab.take(2 * WordSlab::kAlignWords), InputError);
}

TEST(WordSlab, PaddedOverflowThrows)
{
    using bitops::WordSlab;
    // A negative extent cast to size_t upstream would wrap padded()'s
    // rounding; the guard turns that into a diagnosable error.
    EXPECT_THROW(WordSlab::padded(std::numeric_limits<size_t>::max()),
                 InputError);
    EXPECT_THROW(
        WordSlab::padded(std::numeric_limits<size_t>::max() -
                         (WordSlab::kAlignWords - 2)),
        InputError);
}

} // namespace
