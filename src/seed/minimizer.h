/**
 * @file
 * <w,k>-minimizer computation (the paper's Section 6, Fig. 8).
 *
 * A <w,k>-minimizer is the smallest k-mer in a window of w consecutive
 * k-mers. "Smallest" is judged by an invertible hash of the 2-bit packed
 * k-mer (as in Minimap2's mm_sketch), not lexicographically, to avoid
 * poly-A bias. Two sequences sharing an exact match of at least w+k-1
 * bases are guaranteed to share a minimizer.
 *
 * computeMinimizers() is the O(m) single pass of Section 6. In software
 * it takes the window minima with van Herk/Gil-Werman blocks: the k-mers
 * are cut into blocks of w, and every window is the suffix of one block
 * joined to the prefix of the next, so each base costs one hash and a
 * few branch-free minimum selections. (src/hw models the accelerator's
 * sketch as one base per cycle, independent of this formulation.)
 * computeMinimizersNaive() is the quadratic textbook version kept as the
 * property-test reference.
 */

#ifndef SEGRAM_SRC_SEED_MINIMIZER_H
#define SEGRAM_SRC_SEED_MINIMIZER_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace segram::seed
{

/** One selected minimizer. */
struct Minimizer
{
    uint64_t hash = 0; ///< hashed 2-bit packed k-mer (the index key)
    uint32_t pos = 0;  ///< start offset of the k-mer in the sequence

    bool operator==(const Minimizer &) const = default;
};

/** Minimizer sketch parameters. */
struct SketchConfig
{
    int k = 15; ///< k-mer length (<= 31 so 2k bits fit a word)
    int w = 10; ///< window size in k-mers

    /** @return The 2k-bit mask of the k-mer hash domain. */
    uint64_t
    hashMask() const
    {
        return (k >= 32) ? ~uint64_t{0}
                         : ((uint64_t{1} << (2 * k)) - 1);
    }
};

/**
 * Reusable working storage for computeMinimizers (buffer reuse): two
 * blocks of w k-mers, so it stays O(w) whatever the sequence length.
 */
struct MinimizerScratch
{
    /** The k-mer hashes of the block being scanned. */
    std::vector<uint64_t> blockHash;
    /**
     * Suffix minima of the previous block (entry i: the leftmost
     * smallest of its k-mers i..w-1), plus one sentinel at index w.
     */
    std::vector<Minimizer> suffixMin;
};

/**
 * Computes the minimizers of @p seq in one O(m) pass.
 *
 * Each window's minimum-hash k-mer is selected (leftmost on ties);
 * consecutive windows sharing a selection report it once. Sequences
 * shorter than w+k-1 bases produce no minimizers (and are not checked
 * for non-ACGT characters).
 *
 * @throws InputError if k is out of (0, 31] or w < 1, or if @p seq
 *         holds a non-ACGT character.
 */
std::vector<Minimizer> computeMinimizers(std::string_view seq,
                                         const SketchConfig &config);

/**
 * Buffer-reuse variant: clears @p out and fills it in place; the block
 * minima live in @p scratch. Zero heap allocations once the buffers are
 * warm; identical output to the returning overload.
 */
void computeMinimizers(std::string_view seq, const SketchConfig &config,
                       std::vector<Minimizer> &out,
                       MinimizerScratch &scratch);

/** Quadratic reference implementation (tests only; same contract). */
std::vector<Minimizer> computeMinimizersNaive(std::string_view seq,
                                              const SketchConfig &config);

/**
 * @return The hash of the single k-mer starting at @p pos of @p seq
 *         (helper for index construction and tests).
 */
uint64_t kmerHash(std::string_view seq, size_t pos,
                  const SketchConfig &config);

} // namespace segram::seed

#endif // SEGRAM_SRC_SEED_MINIMIZER_H
