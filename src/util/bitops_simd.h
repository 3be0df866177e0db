/**
 * @file
 * Vectorized kernel layer for the lane-batched BitAlign recurrence.
 *
 * The BitAlign recurrence (Algorithm 1) is a stream of word-wise
 * shift/AND/OR sweeps over multi-word bitvectors. In hardware every
 * PE of the array advances its own window; in software the same
 * parallelism maps onto SIMD lanes, one independent window per lane
 * (see kBatchLanes). This layer provides:
 *
 *  - KernelOps: a function table of the lane-batched primitives. The
 *    per-window word primitives they generalize have one scalar copy,
 *    the bitops free functions in bitvector.h.
 *  - scalarKernels(): the portable reference implementation, always
 *    available, bit-identical to every other backend by construction
 *    (all ops are pure integer bit manipulation).
 *  - simdKernels(): the best vectorized table this build + CPU supports
 *    (AVX2 on x86-64 via runtime CPUID, NEON on aarch64), or nullptr.
 *  - kernels(): the active table, selected once at startup. The
 *    SEGRAM_DISABLE_SIMD compile definition or a non-zero
 *    SEGRAM_DISABLE_SIMD environment variable forces the scalar table
 *    (the CI fallback leg and local bit-identity checks use this).
 *
 * Aliasing contract: batchShiftLeftOneOr allows dst == src (full
 * overlap); partial overlap is not allowed. batchFusedCell and
 * batchColumn write a fresh destination that must not overlap any
 * source. All backends honor the same contract (word groups run
 * high-to-low so a fully aliased shift never reads a group it already
 * wrote).
 */

#ifndef SEGRAM_SRC_UTIL_BITOPS_SIMD_H
#define SEGRAM_SRC_UTIL_BITOPS_SIMD_H

#include <cstdint>

namespace segram::bitops
{

/** Which kernel implementation backs the dispatched table. */
enum class KernelBackend : uint8_t
{
    Scalar,
    Avx2,
    Neon,
};

/**
 * Function table of the lane-batched BitAlign primitives. Every op
 * runs kBatchLanes windows of @p nwords 64-bit words each, in the
 * lane-major layout, least-significant word group first.
 */
struct KernelOps
{
    /**
     * Lane-batched dst = (src << 1) | mask over kBatchLanes independent
     * windows in the lane-major layout (see kBatchLanes). The shift
     * carry propagates within each lane only (word group j-1 of lane w
     * feeds word group j of lane w); lanes never mix, so one batched
     * sweep is bit-identical to kBatchLanes bitops::shiftLeftOneOr calls
     * on the de-interleaved vectors.
     */
    void (*batchShiftLeftOneOr)(uint64_t *dst, const uint64_t *src,
                                const uint64_t *mask, int nwords);

    /**
     * Lane-batched bitops::fusedCell: one whole single-successor
     * recurrence cell for kBatchLanes independent windows per sweep. Same
     * lane-major layout and per-lane carry rule as batchShiftLeftOneOr;
     * dst must not overlap any source.
     */
    void (*batchFusedCell)(uint64_t *dst, const uint64_t *ins,
                           const uint64_t *ds, const uint64_t *match,
                           const uint64_t *pm, int nwords);

    /**
     * Levels [@p first, @p end) of one lane-batched recurrence column in
     * a single call: equivalent to batchShiftLeftOneOr(col, prev, pm,
     * nwords) when @p first is 0, followed by batchFusedCell(col + d*L,
     * col + (d-1)*L, prev + (d-1)*L, prev + d*L, pm, nwords) for every
     * d in [max(first, 1), end), with L = nwords * kBatchLanes. @p col
     * and @p prev are level-major stacks of lane-major rows, level 0
     * first, and must not overlap; the call writes only col's levels
     * [first, end) and, when first > 0, reads col's level first-1,
     * which an earlier call must have produced. Sweeping a column in
     * level blocks, [0, a) and then [a, b), is therefore bit-identical
     * to one call over [0, b) — what lets alignWindowBatch stop after
     * the block in which its lanes' hits sit.
     *
     * The recurrence chains across levels — level d's insertion input
     * is level d-1's output, and its deletion source is level d-1's
     * match source — so fusing the column keeps pm, the previous
     * level's output and the shifted previous source in registers: one
     * fresh load of prev per word group per level instead of four, and
     * one call per step instead of one per level.
     */
    void (*batchColumn)(uint64_t *col, const uint64_t *prev,
                        const uint64_t *pm, int nwords, int first,
                        int end);
};

/**
 * Windows per lane-batched kernel sweep. The batched ops run this many
 * *independent* window recurrences at once in a lane-major
 * (struct-of-arrays) layout: word group j of lane w lives at index
 * j * kBatchLanes + w, so group j of all lanes is one contiguous
 * 256-bit block — exactly one AVX2 register (4 x 64-bit lanes). The
 * constant is the same for every backend (scalar and NEON included):
 * the layout, and therefore every window's output, never depends on
 * which table executes the sweep or which lane the window rides in.
 */
constexpr int kBatchLanes = 4;

/** @return The portable scalar table (always available). */
const KernelOps &scalarKernels();

/**
 * @return The best vectorized table this build and CPU support (AVX2
 *         checked via CPUID at first call, NEON unconditionally on
 *         aarch64), or nullptr when none is available or the build
 *         was configured with SEGRAM_DISABLE_SIMD.
 */
const KernelOps *simdKernels();

/** @return The backend simdKernels() would provide (Scalar if null). */
KernelBackend simdBackend();

/**
 * @return The active table: simdKernels() unless unavailable or
 *         disabled (SEGRAM_DISABLE_SIMD build option or environment
 *         variable), else the scalar table. Selected once, on first
 *         call; the decision never changes within a process.
 */
const KernelOps &kernels();

/** @return The backend behind kernels(). */
KernelBackend activeBackend();

/** @return Lower-case backend name ("scalar", "avx2", "neon"),
 *          NUL-terminated for direct printf use. */
const char *backendName(KernelBackend backend);

/** @return backendName(activeBackend()). */
const char *activeBackendName();

} // namespace segram::bitops

#endif // SEGRAM_SRC_UTIL_BITOPS_SIMD_H
