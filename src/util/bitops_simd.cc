#include "src/util/bitops_simd.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if !defined(SEGRAM_DISABLE_SIMD)
#if defined(__x86_64__) || defined(_M_X64)
#define SEGRAM_KERNELS_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define SEGRAM_KERNELS_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace segram::bitops
{

namespace
{

// ------------------------------------------------------------- scalar
// The reference implementations. Every other backend must be
// bit-identical to these (pure integer ops, so any equivalent
// reassociation is).

// Lane-batched ops: word group j of lane w lives at j * kBatchLanes + w
// and the shift carry flows from group j-1 to group j within one lane.
// Groups run high-to-low, so a fully aliased dst == src never
// overwrites a group a lower pass still reads.

void
scalarBatchShiftLeftOneOr(uint64_t *dst, const uint64_t *src,
                          const uint64_t *mask, int nwords)
{
    for (int j = nwords - 1; j >= 1; --j) {
        for (int w = 0; w < kBatchLanes; ++w) {
            const size_t at = static_cast<size_t>(j) * kBatchLanes + w;
            const size_t below = at - kBatchLanes;
            dst[at] = ((src[at] << 1) | (src[below] >> 63)) | mask[at];
        }
    }
    for (int w = 0; w < kBatchLanes; ++w)
        dst[w] = (src[w] << 1) | mask[w];
}

void
scalarBatchFusedCell(uint64_t *dst, const uint64_t *ins,
                     const uint64_t *ds, const uint64_t *match,
                     const uint64_t *pm, int nwords)
{
    for (int j = nwords - 1; j >= 1; --j) {
        for (int w = 0; w < kBatchLanes; ++w) {
            const size_t at = static_cast<size_t>(j) * kBatchLanes + w;
            const size_t below = at - kBatchLanes;
            dst[at] = ((ins[at] << 1) | (ins[below] >> 63)) & ds[at] &
                      ((ds[at] << 1) | (ds[below] >> 63)) &
                      (((match[at] << 1) | (match[below] >> 63)) |
                       pm[at]);
        }
    }
    for (int w = 0; w < kBatchLanes; ++w) {
        dst[w] = (ins[w] << 1) & ds[w] & (ds[w] << 1) &
                 ((match[w] << 1) | pm[w]);
    }
}

// The fused column: a block of levels of one step in one call. The
// scalar version chains per-lane carries across word groups the same
// way the per-level ops do; being pure integer ops, running the levels
// back to back is bit-identical to the two-op sequence it replaces.
void
scalarBatchColumn(uint64_t *col, const uint64_t *prev, const uint64_t *pm,
                  int nwords, int first, int end)
{
    const size_t lane_words =
        static_cast<size_t>(nwords) * kBatchLanes;
    if (first >= end)
        return;
    if (first == 0)
        scalarBatchShiftLeftOneOr(col, prev, pm, nwords);
    for (int d = std::max(first, 1); d < end; ++d) {
        scalarBatchFusedCell(col + static_cast<size_t>(d) * lane_words,
                             col + static_cast<size_t>(d - 1) * lane_words,
                             prev + static_cast<size_t>(d - 1) * lane_words,
                             prev + static_cast<size_t>(d) * lane_words,
                             pm, nwords);
    }
}

constexpr KernelOps kScalarOps = {
    scalarBatchShiftLeftOneOr,
    scalarBatchFusedCell,
    scalarBatchColumn,
};

// --------------------------------------------------------------- AVX2
// One word group of all kBatchLanes lanes is exactly one 256-bit
// register. The per-lane carry of a shift-left is materialized by a
// second load of the group below: group j's carry-in is bit 63 of
// group j-1, lane by lane, so no cross-lane permute is ever needed.
// Groups run high-to-low so a fully aliased destination never
// overwrites a group a later (lower) pass still needs to read.
#if defined(SEGRAM_KERNELS_AVX2)

__attribute__((target("avx2"))) inline __m256i
avx2ShiftIn(__m256i v, __m256i below)
{
    return _mm256_or_si256(_mm256_slli_epi64(v, 1),
                           _mm256_srli_epi64(below, 63));
}

__attribute__((target("avx2"))) inline __m256i
avx2Load(const uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

__attribute__((target("avx2"))) void
avx2BatchShiftLeftOneOr(uint64_t *dst, const uint64_t *src,
                        const uint64_t *mask, int nwords)
{
    for (int j = nwords - 1; j >= 1; --j) {
        const __m256i v = avx2Load(src + static_cast<size_t>(j) * 4);
        const __m256i p =
            avx2Load(src + static_cast<size_t>(j - 1) * 4);
        const __m256i m = avx2Load(mask + static_cast<size_t>(j) * 4);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + static_cast<size_t>(j) * 4),
            _mm256_or_si256(avx2ShiftIn(v, p), m));
    }
    const __m256i v0 = avx2Load(src);
    const __m256i m0 = avx2Load(mask);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(dst),
        _mm256_or_si256(_mm256_slli_epi64(v0, 1), m0));
}

__attribute__((target("avx2"))) void
avx2BatchFusedCell(uint64_t *dst, const uint64_t *ins, const uint64_t *ds,
                   const uint64_t *match, const uint64_t *pm, int nwords)
{
    for (int j = nwords - 1; j >= 1; --j) {
        const size_t at = static_cast<size_t>(j) * 4;
        const size_t below = at - 4;
        const __m256i iv = avx2Load(ins + at);
        const __m256i ip = avx2Load(ins + below);
        const __m256i dv = avx2Load(ds + at);
        const __m256i dp = avx2Load(ds + below);
        const __m256i mv = avx2Load(match + at);
        const __m256i mp = avx2Load(match + below);
        const __m256i pmv = avx2Load(pm + at);
        const __m256i cell = _mm256_and_si256(
            _mm256_and_si256(avx2ShiftIn(iv, ip), dv),
            _mm256_and_si256(
                avx2ShiftIn(dv, dp),
                _mm256_or_si256(avx2ShiftIn(mv, mp), pmv)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + at), cell);
    }
    const __m256i iv = avx2Load(ins);
    const __m256i dv = avx2Load(ds);
    const __m256i mv = avx2Load(match);
    const __m256i pmv = avx2Load(pm);
    const __m256i cell = _mm256_and_si256(
        _mm256_and_si256(_mm256_slli_epi64(iv, 1), dv),
        _mm256_and_si256(
            _mm256_slli_epi64(dv, 1),
            _mm256_or_si256(_mm256_slli_epi64(mv, 1), pmv)));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), cell);
}

// Fused column, fixed width: the whole level block stays in
// registers. Level d reads level d-1's output (the chained insertion
// term) and level d-1's prev row (whose unshifted and shifted forms
// were both computed there) straight from registers, so the only
// memory traffic per level is NW fresh loads of prev[d] and NW stores
// of col[d]. A block that starts above level 0 seeds that chain with
// one load each of col[first-1] and prev[first-1]. With NW <= 2 the
// live set (pm, prev row, shifted prev row, output, plus the incoming
// level's temporaries) fits the 16 ymm registers.
template <int NW>
__attribute__((target("avx2"))) void
avx2BatchColumnFixed(uint64_t *col, const uint64_t *prev,
                     const uint64_t *pm, int first, int end)
{
    __m256i pmv[NW], pp[NW], sp[NW], r[NW];
    for (int j = 0; j < NW; ++j)
        pmv[j] = avx2Load(pm + static_cast<size_t>(j) * 4);
    const size_t seed = static_cast<size_t>(first == 0 ? 0 : first - 1) *
                        NW * 4;
    for (int j = 0; j < NW; ++j)
        pp[j] = avx2Load(prev + seed + static_cast<size_t>(j) * 4);
    sp[0] = _mm256_slli_epi64(pp[0], 1);
    for (int j = 1; j < NW; ++j)
        sp[j] = avx2ShiftIn(pp[j], pp[j - 1]);
    if (first == 0) {
        for (int j = 0; j < NW; ++j) {
            r[j] = _mm256_or_si256(sp[j], pmv[j]);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(col +
                                            static_cast<size_t>(j) * 4),
                r[j]);
        }
    } else {
        for (int j = 0; j < NW; ++j)
            r[j] = avx2Load(col + seed + static_cast<size_t>(j) * 4);
    }
    for (int d = std::max(first, 1); d < end; ++d) {
        const size_t base = static_cast<size_t>(d) * NW * 4;
        __m256i pd[NW], sd[NW], ri[NW];
        for (int j = 0; j < NW; ++j)
            pd[j] = avx2Load(prev + base + static_cast<size_t>(j) * 4);
        sd[0] = _mm256_slli_epi64(pd[0], 1);
        ri[0] = _mm256_slli_epi64(r[0], 1);
        for (int j = 1; j < NW; ++j) {
            sd[j] = avx2ShiftIn(pd[j], pd[j - 1]);
            ri[j] = avx2ShiftIn(r[j], r[j - 1]);
        }
        for (int j = 0; j < NW; ++j) {
            r[j] = _mm256_and_si256(
                _mm256_and_si256(ri[j], pp[j]),
                _mm256_and_si256(sp[j],
                                 _mm256_or_si256(sd[j], pmv[j])));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(
                    col + base + static_cast<size_t>(j) * 4),
                r[j]);
            pp[j] = pd[j];
            sp[j] = sd[j];
        }
    }
}

__attribute__((target("avx2"))) void
avx2BatchColumn(uint64_t *col, const uint64_t *prev, const uint64_t *pm,
                int nwords, int first, int end)
{
    if (first >= end)
        return;
    if (nwords == 1) {
        avx2BatchColumnFixed<1>(col, prev, pm, first, end);
        return;
    }
    if (nwords == 2) {
        avx2BatchColumnFixed<2>(col, prev, pm, first, end);
        return;
    }
    // Wide patterns: per-level sweeps (no register set holds them).
    const size_t lane_words = static_cast<size_t>(nwords) * kBatchLanes;
    if (first == 0)
        avx2BatchShiftLeftOneOr(col, prev, pm, nwords);
    for (int d = std::max(first, 1); d < end; ++d) {
        avx2BatchFusedCell(col + static_cast<size_t>(d) * lane_words,
                           col + static_cast<size_t>(d - 1) * lane_words,
                           prev + static_cast<size_t>(d - 1) * lane_words,
                           prev + static_cast<size_t>(d) * lane_words,
                           pm, nwords);
    }
}

constexpr KernelOps kAvx2Ops = {
    avx2BatchShiftLeftOneOr,
    avx2BatchFusedCell,
    avx2BatchColumn,
};

#endif // SEGRAM_KERNELS_AVX2

// --------------------------------------------------------------- NEON
// One word group of the 4 lanes spans two 128-bit registers on the
// baseline aarch64 vector unit; same lane-wise carry-by-lower-load and
// high-to-low group order as AVX2.
#if defined(SEGRAM_KERNELS_NEON)

inline uint64x2_t
neonShiftIn(uint64x2_t v, uint64x2_t below)
{
    return vorrq_u64(vshlq_n_u64(v, 1), vshrq_n_u64(below, 63));
}

void
neonBatchShiftLeftOneOr(uint64_t *dst, const uint64_t *src,
                        const uint64_t *mask, int nwords)
{
    for (int j = nwords - 1; j >= 1; --j) {
        const size_t at = static_cast<size_t>(j) * 4;
        const size_t below = at - 4;
        for (int h = 0; h < 4; h += 2) {
            const uint64x2_t v = vld1q_u64(src + at + h);
            const uint64x2_t p = vld1q_u64(src + below + h);
            vst1q_u64(dst + at + h,
                      vorrq_u64(neonShiftIn(v, p),
                                vld1q_u64(mask + at + h)));
        }
    }
    for (int h = 0; h < 4; h += 2) {
        const uint64x2_t v = vld1q_u64(src + h);
        vst1q_u64(dst + h,
                  vorrq_u64(vshlq_n_u64(v, 1), vld1q_u64(mask + h)));
    }
}

void
neonBatchFusedCell(uint64_t *dst, const uint64_t *ins, const uint64_t *ds,
                   const uint64_t *match, const uint64_t *pm, int nwords)
{
    for (int j = nwords - 1; j >= 1; --j) {
        const size_t at = static_cast<size_t>(j) * 4;
        const size_t below = at - 4;
        for (int h = 0; h < 4; h += 2) {
            const uint64x2_t iv = vld1q_u64(ins + at + h);
            const uint64x2_t ip = vld1q_u64(ins + below + h);
            const uint64x2_t dv = vld1q_u64(ds + at + h);
            const uint64x2_t dp = vld1q_u64(ds + below + h);
            const uint64x2_t mv = vld1q_u64(match + at + h);
            const uint64x2_t mp = vld1q_u64(match + below + h);
            const uint64x2_t pmv = vld1q_u64(pm + at + h);
            const uint64x2_t cell = vandq_u64(
                vandq_u64(neonShiftIn(iv, ip), dv),
                vandq_u64(neonShiftIn(dv, dp),
                          vorrq_u64(neonShiftIn(mv, mp), pmv)));
            vst1q_u64(dst + at + h, cell);
        }
    }
    for (int h = 0; h < 4; h += 2) {
        const uint64x2_t iv = vld1q_u64(ins + h);
        const uint64x2_t dv = vld1q_u64(ds + h);
        const uint64x2_t mv = vld1q_u64(match + h);
        const uint64x2_t pmv = vld1q_u64(pm + h);
        const uint64x2_t cell = vandq_u64(
            vandq_u64(vshlq_n_u64(iv, 1), dv),
            vandq_u64(vshlq_n_u64(dv, 1),
                      vorrq_u64(vshlq_n_u64(mv, 1), pmv)));
        vst1q_u64(dst + h, cell);
    }
}

// Fused column, fixed width: same register chaining (and the same
// col[first-1]/prev[first-1] seed for a block above level 0) as the
// AVX2 variant, with each 4-lane word group split across two 128-bit
// registers. aarch64 has 32 vector registers, so NW <= 2 (up to 16
// live rows) fits comfortably.
template <int NW>
void
neonBatchColumnFixed(uint64_t *col, const uint64_t *prev,
                     const uint64_t *pm, int first, int end)
{
    uint64x2_t pmv[NW][2], pp[NW][2], sp[NW][2], r[NW][2];
    for (int j = 0; j < NW; ++j)
        for (int h = 0; h < 2; ++h)
            pmv[j][h] = vld1q_u64(pm + static_cast<size_t>(j) * 4 + h * 2);
    const size_t seed = static_cast<size_t>(first == 0 ? 0 : first - 1) *
                        NW * 4;
    for (int j = 0; j < NW; ++j)
        for (int h = 0; h < 2; ++h)
            pp[j][h] = vld1q_u64(prev + seed + static_cast<size_t>(j) * 4 +
                                 h * 2);
    for (int h = 0; h < 2; ++h)
        sp[0][h] = vshlq_n_u64(pp[0][h], 1);
    for (int j = 1; j < NW; ++j)
        for (int h = 0; h < 2; ++h)
            sp[j][h] = neonShiftIn(pp[j][h], pp[j - 1][h]);
    for (int j = 0; j < NW; ++j)
        for (int h = 0; h < 2; ++h) {
            uint64_t *out = col + seed + static_cast<size_t>(j) * 4 + h * 2;
            if (first == 0) {
                r[j][h] = vorrq_u64(sp[j][h], pmv[j][h]);
                vst1q_u64(out, r[j][h]);
            } else {
                r[j][h] = vld1q_u64(out);
            }
        }
    for (int d = std::max(first, 1); d < end; ++d) {
        const size_t base = static_cast<size_t>(d) * NW * 4;
        uint64x2_t pd[NW][2], sd[NW][2], ri[NW][2];
        for (int j = 0; j < NW; ++j)
            for (int h = 0; h < 2; ++h)
                pd[j][h] =
                    vld1q_u64(prev + base + static_cast<size_t>(j) * 4 +
                              h * 2);
        for (int h = 0; h < 2; ++h) {
            sd[0][h] = vshlq_n_u64(pd[0][h], 1);
            ri[0][h] = vshlq_n_u64(r[0][h], 1);
        }
        for (int j = 1; j < NW; ++j)
            for (int h = 0; h < 2; ++h) {
                sd[j][h] = neonShiftIn(pd[j][h], pd[j - 1][h]);
                ri[j][h] = neonShiftIn(r[j][h], r[j - 1][h]);
            }
        for (int j = 0; j < NW; ++j)
            for (int h = 0; h < 2; ++h) {
                r[j][h] = vandq_u64(
                    vandq_u64(ri[j][h], pp[j][h]),
                    vandq_u64(sp[j][h],
                              vorrq_u64(sd[j][h], pmv[j][h])));
                vst1q_u64(col + base + static_cast<size_t>(j) * 4 + h * 2,
                          r[j][h]);
                pp[j][h] = pd[j][h];
                sp[j][h] = sd[j][h];
            }
    }
}

void
neonBatchColumn(uint64_t *col, const uint64_t *prev, const uint64_t *pm,
                int nwords, int first, int end)
{
    if (first >= end)
        return;
    if (nwords == 1) {
        neonBatchColumnFixed<1>(col, prev, pm, first, end);
        return;
    }
    if (nwords == 2) {
        neonBatchColumnFixed<2>(col, prev, pm, first, end);
        return;
    }
    const size_t lane_words = static_cast<size_t>(nwords) * kBatchLanes;
    if (first == 0)
        neonBatchShiftLeftOneOr(col, prev, pm, nwords);
    for (int d = std::max(first, 1); d < end; ++d) {
        neonBatchFusedCell(col + static_cast<size_t>(d) * lane_words,
                           col + static_cast<size_t>(d - 1) * lane_words,
                           prev + static_cast<size_t>(d - 1) * lane_words,
                           prev + static_cast<size_t>(d) * lane_words,
                           pm, nwords);
    }
}

constexpr KernelOps kNeonOps = {
    neonBatchShiftLeftOneOr,
    neonBatchFusedCell,
    neonBatchColumn,
};

#endif // SEGRAM_KERNELS_NEON

// ----------------------------------------------------------- dispatch

/** @return true when the environment forces the scalar fallback. */
bool
envDisablesSimd()
{
    // Read exactly once, during the static dispatch-table init,
    // before any worker thread exists — nothing can race a setenv.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("SEGRAM_DISABLE_SIMD");
    return env != nullptr && env[0] != '\0' &&
           std::strcmp(env, "0") != 0;
}

struct Selection
{
    const KernelOps *ops;
    KernelBackend backend;
};

Selection
select()
{
    if (!envDisablesSimd()) {
        if (const KernelOps *simd = simdKernels())
            return {simd, simdBackend()};
    }
    return {&kScalarOps, KernelBackend::Scalar};
}

const Selection &
selection()
{
    static const Selection chosen = select();
    return chosen;
}

} // namespace

const KernelOps &
scalarKernels()
{
    return kScalarOps;
}

const KernelOps *
simdKernels()
{
#if defined(SEGRAM_KERNELS_AVX2)
    if (__builtin_cpu_supports("avx2"))
        return &kAvx2Ops;
#elif defined(SEGRAM_KERNELS_NEON)
    return &kNeonOps;
#endif
    return nullptr;
}

KernelBackend
simdBackend()
{
#if defined(SEGRAM_KERNELS_AVX2)
    if (__builtin_cpu_supports("avx2"))
        return KernelBackend::Avx2;
#elif defined(SEGRAM_KERNELS_NEON)
    return KernelBackend::Neon;
#endif
    return KernelBackend::Scalar;
}

const KernelOps &
kernels()
{
    return *selection().ops;
}

KernelBackend
activeBackend()
{
    return selection().backend;
}

const char *
backendName(KernelBackend backend)
{
    switch (backend) {
    case KernelBackend::Avx2:
        return "avx2";
    case KernelBackend::Neon:
        return "neon";
    case KernelBackend::Scalar:
        break;
    }
    return "scalar";
}

const char *
activeBackendName()
{
    return backendName(activeBackend());
}

} // namespace segram::bitops
