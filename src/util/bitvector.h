/**
 * @file
 * Fixed-width multi-word bitvector, the data type that the Bitap/GenASM/
 * BitAlign status vectors (R[d]) are made of.
 *
 * Conventions follow the active-low Bitap family used throughout SeGraM:
 * a 0 bit means "match so far", a 1 bit means "no match". Shifting left
 * brings a 0 into the least-significant bit, which is exactly the
 * behaviour the recurrences in Algorithm 1 of the paper need. Bits above
 * the configured width are always kept at 1 so that equality comparisons
 * and most-significant-bit probes are well defined.
 */

#ifndef SEGRAM_SRC_UTIL_BITVECTOR_H
#define SEGRAM_SRC_UTIL_BITVECTOR_H

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace segram
{

/**
 * A fixed-width bitvector with the handful of operations the BitAlign
 * recurrence needs: shift-left-by-one, bitwise AND/OR, and single-bit
 * probes. Width is set at construction and never changes; all operands of
 * binary operations must share the same width.
 */
class Bitvector
{
  public:
    /** Number of payload bits per storage word. */
    static constexpr int bitsPerWord = 64;

    /** Creates an empty (zero-width) bitvector. */
    Bitvector() = default;

    /**
     * Creates a bitvector of the given width.
     *
     * @param width Number of bits.
     * @param ones  When true (the default, matching the all-ones
     *              initialization of Algorithm 1), every bit starts at 1.
     */
    explicit Bitvector(int width, bool ones = true);

    /** @return The width in bits. */
    int width() const { return width_; }

    /** @return Number of 64-bit words backing this vector. */
    int numWords() const { return static_cast<int>(words_.size()); }

    /** Sets every payload bit to 1. */
    void setAllOnes();

    /** Sets every payload bit to 0. */
    void setAllZeros();

    /** @return Bit at position @p pos (0 = least significant). */
    bool test(int pos) const;

    /** Sets bit at position @p pos to @p value. */
    void set(int pos, bool value);

    /**
     * Shifts the whole vector left by one bit, bringing a 0 into bit 0 and
     * discarding the old most-significant payload bit.
     */
    void shiftLeftOne();

    /** @return A copy of this vector shifted left by one. */
    Bitvector shiftedLeftOne() const;

    /** In-place bitwise OR with @p other (same width required). */
    Bitvector &operator|=(const Bitvector &other);

    /** In-place bitwise AND with @p other (same width required). */
    Bitvector &operator&=(const Bitvector &other);

    friend Bitvector operator|(Bitvector lhs, const Bitvector &rhs)
    {
        lhs |= rhs;
        return lhs;
    }

    friend Bitvector operator&(Bitvector lhs, const Bitvector &rhs)
    {
        lhs &= rhs;
        return lhs;
    }

    bool operator==(const Bitvector &other) const = default;

    /** @return Number of 0 bits (i.e., "match" positions). */
    int countZeros() const;

    /** @return The raw word at index @p idx (LSB word is index 0). */
    uint64_t word(int idx) const { return words_[idx]; }

    /** Direct mutable access to the backing words (keeps padding rule). */
    uint64_t *data() { return words_.data(); }
    const uint64_t *data() const { return words_.data(); }

    /**
     * Renders the vector as a binary string, most-significant bit first,
     * e.g. "0111" for width 4 with only bit 3 clear... (bit 3 = '0').
     */
    std::string toString() const;

  private:
    /** Forces all padding bits (>= width) back to 1. */
    void repairPadding();

    int width_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Free-function kernels operating on raw word arrays: the one scalar
 * copy of the per-window BitAlign word primitives. Bitvector methods
 * forward to them, the lane-batched kernel's exception fixup runs them
 * on one lane's gathered column, GenASM's rolling columns use them, and
 * the batch-kernel tests take them as the reference.
 *
 * Aliasing contract: dst == src (full overlap) is allowed for every
 * in-place op (andInPlace, orInPlace, andShiftAnd, shiftLeftOneOrAnd)
 * and for the shifting copies (shiftLeftOne, shiftLeftOneOr); partial
 * overlap is not. fusedCell writes a fresh destination: dst must not
 * overlap any source.
 */
namespace bitops
{

/** @return Words needed to hold @p width bits. */
inline int
wordsForWidth(int width)
{
    return (width + Bitvector::bitsPerWord - 1) / Bitvector::bitsPerWord;
}

/** dst = src << 1 over @p nwords words (0 shifted into bit 0). */
void shiftLeftOne(uint64_t *dst, const uint64_t *src, int nwords);

/** dst &= src over @p nwords words. */
void andInPlace(uint64_t *dst, const uint64_t *src, int nwords);

/** dst |= src over @p nwords words. */
void orInPlace(uint64_t *dst, const uint64_t *src, int nwords);

/** dst = (src << 1) | mask over @p nwords words. */
void shiftLeftOneOr(uint64_t *dst, const uint64_t *src, const uint64_t *mask,
                    int nwords);

/**
 * Fused M term: dst &= ((src << 1) | mask) in one sweep and no
 * temporary (a shiftLeftOneOr into scratch plus an andInPlace).
 */
void shiftLeftOneOrAnd(uint64_t *dst, const uint64_t *src,
                       const uint64_t *mask, int nwords);

/**
 * Fused D & S terms: dst &= src & (src << 1). The deletion (unshifted)
 * and substitution (shifted) vectors of a successor always arrive as
 * the same source.
 */
void andShiftAnd(uint64_t *dst, const uint64_t *src, int nwords);

/**
 * One whole single-successor recurrence cell in one sweep:
 *
 *   dst = (ins << 1) & ds & (ds << 1) & ((match << 1) | pm)
 *
 * i.e. I & D & S & M with ins = R[i][d-1], ds = R[j][d-1],
 * match = R[j][d] — the op the BitAlign PE array computes per cycle.
 */
void fusedCell(uint64_t *dst, const uint64_t *ins, const uint64_t *ds,
               const uint64_t *match, const uint64_t *pm, int nwords);

/** Sets all @p nwords words to all-ones. */
void fillOnes(uint64_t *dst, int nwords);

/** @return Bit @p pos of the array. */
bool testBit(const uint64_t *words, int pos);

/** Clears bit @p pos of the array. */
void clearBit(uint64_t *words, int pos);

/**
 * A flat, reusable arena of 64-bit words: the software analogue of the
 * fixed on-chip bitvector scratchpad the BitAlign hardware reuses for
 * every window. Callers reset() it to the total word count they need,
 * then carve disjoint sub-arrays with take(). The backing store only
 * ever grows, so a warm slab serves every subsequent window of the
 * same (or smaller) size without touching the heap.
 *
 * Every carve starts on a 64-byte (cache-line / AVX2-friendly)
 * boundary: take() rounds its argument up to kAlignWords, so callers
 * sizing a reset() must sum padded() carve sizes, not raw ones.
 */
class WordSlab
{
  public:
    /** Alignment of every carve, in bytes (one cache line). */
    static constexpr size_t kAlignBytes = 64;

    /** Alignment of every carve, in words. */
    static constexpr size_t kAlignWords = kAlignBytes / sizeof(uint64_t);

    /** @return @p nwords rounded up to a whole number of carve units
     *          (what one take(nwords) actually consumes).
     *  @throws InputError when the rounding would overflow size_t (a
     *          carve-sizing bug upstream, e.g. a negative extent cast
     *          to size_t). */
    static constexpr size_t
    padded(size_t nwords)
    {
        SEGRAM_CHECK(
            nwords <=
                std::numeric_limits<size_t>::max() - (kAlignWords - 1),
            "WordSlab::padded size overflows");
        return (nwords + kAlignWords - 1) & ~(kAlignWords - 1);
    }

    /**
     * Ensures capacity for @p nwords words of carves (the sum of
     * padded() sizes over the intended takes) and rewinds the carve
     * point. Previously taken pointers are invalidated.
     */
    void
    reset(size_t nwords)
    {
        // One extra alignment unit pays for aligning the vector's base.
        const size_t need = padded(nwords) + kAlignWords;
        if (words_.size() < need)
            words_.resize(need);
        const auto addr = reinterpret_cast<uintptr_t>(words_.data());
        base_ = (kAlignBytes - addr % kAlignBytes) % kAlignBytes /
                sizeof(uint64_t);
        next_ = 0;
        cap_ = padded(nwords);
    }

    /**
     * Carves the next @p nwords words (uninitialized — callers fill
     * them, exactly like freshly selected scratchpad banks), starting
     * on a 64-byte boundary.
     *
     * @throws InputError when the carve exceeds the reset() capacity —
     *         an out-of-bounds bitvector write waiting to happen, so
     *         the exhaustion is always diagnosed, not just in debug
     *         builds (batched carves made sizing errors likelier).
     */
    uint64_t *
    take(size_t nwords)
    {
        // The bound is the *logical* reset() capacity, not the backing
        // vector: the alignment-slack unit must never hide a one-carve
        // overrun, or the error would surface only on unlucky base
        // addresses.
        SEGRAM_CHECK(nwords <= cap_ && next_ <= cap_ - padded(nwords),
                     "WordSlab::take exhausts the reset() capacity");
        uint64_t *out = words_.data() + base_ + next_;
        next_ += padded(nwords);
        return out;
    }

    /** @return Words currently backing the slab (capacity telemetry). */
    size_t capacityWords() const { return words_.size(); }

  private:
    std::vector<uint64_t> words_;
    size_t base_ = 0; ///< words skipped to 64-byte-align the first carve
    size_t next_ = 0; ///< aligned carve offset relative to base_
    size_t cap_ = 0;  ///< padded reset() capacity the carves may use
};

} // namespace bitops

} // namespace segram

#endif // SEGRAM_SRC_UTIL_BITVECTOR_H
