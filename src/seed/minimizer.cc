#include "src/seed/minimizer.h"

#include <algorithm>
#include <vector>

#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/hash.h"

namespace segram::seed
{

namespace
{

/**
 * @return @p cond ? @p a : @p b through a mask. Position selects written
 *         as plain ternaries compile to branches, which mispredict on
 *         random k-mer order; the hash selects compile to cmov as is.
 */
uint32_t
choose(bool cond, uint32_t a, uint32_t b)
{
    const uint32_t mask = 0U - static_cast<uint32_t>(cond);
    return (a & mask) | (b & ~mask);
}

void
validateConfig(const SketchConfig &config)
{
    SEGRAM_CHECK(config.k >= 1 && config.k <= 31,
                 "minimizer k must be in [1, 31]");
    SEGRAM_CHECK(config.w >= 1, "minimizer window must be >= 1");
}

} // namespace

uint64_t
kmerHash(std::string_view seq, size_t pos, const SketchConfig &config)
{
    uint64_t packed = 0;
    for (int i = 0; i < config.k; ++i) {
        const uint8_t code = baseToCode(seq[pos + i]);
        SEGRAM_CHECK(code != kInvalidBaseCode,
                     "k-mer contains a non-ACGT character");
        packed = (packed << 2) | code;
    }
    return hash64(packed, config.hashMask());
}

std::vector<Minimizer>
computeMinimizers(std::string_view seq, const SketchConfig &config)
{
    std::vector<Minimizer> out;
    MinimizerScratch scratch;
    computeMinimizers(seq, config, out, scratch);
    return out;
}

void
computeMinimizers(std::string_view seq, const SketchConfig &config,
                  std::vector<Minimizer> &out, MinimizerScratch &scratch)
{
    validateConfig(config);
    out.clear();
    const auto k = static_cast<size_t>(config.k);
    const auto w = static_cast<size_t>(config.w);
    if (seq.size() + 1 < k + w)
        return;
    const size_t num_kmers = seq.size() - k + 1;
    const uint64_t mask = config.hashMask();

    // Every base's code is OR-ed into `seen` and tested once at the end:
    // valid codes are 0..3, so only kInvalidBaseCode sets bit 2.
    static_assert((kInvalidBaseCode & 3) == 0,
                  "the invalid code must not overlap the 2-bit codes");
    uint8_t seen = 0;
    uint64_t packed = 0;
    const auto pushBase = [&](size_t i) {
        const uint8_t code = baseToCode(seq[i]);
        seen |= code;
        packed = ((packed << 2) | (code & 3)) & mask;
    };
    for (size_t i = 0; i + 1 < k; ++i)
        pushBase(i);

    // Window minima by van Herk/Gil-Werman blocks of w k-mers. The
    // window ending at k-mer b*w+o (o < w-1) is the suffix o+1..w-1 of
    // block b-1 joined to the prefix 0..o of block b; at o = w-1 it is
    // block b alone, which the sentinel at suffixMin[w] selects. The
    // order is (hash, position): a prefix scan keeps its minimum on
    // equal hashes, a suffix scan takes the new (lefter) k-mer, and the
    // join prefers the suffix, so every tie goes to the leftmost k-mer
    // without comparing positions. No selection branches on data.
    constexpr Minimizer kNone{~uint64_t{0}, 0};
    std::vector<uint64_t> &block_hash = scratch.blockHash;
    std::vector<Minimizer> &suffix_min = scratch.suffixMin;
    block_hash.resize(w);
    suffix_min.assign(w + 1, kNone);

    // Each window writes its selection at out[count]; the count only
    // advances when the selection moved, which drops the repeats.
    size_t count = 0;
    uint32_t last_pos = ~uint32_t{0};
    for (size_t block_start = 0; block_start < num_kmers;
         block_start += w) {
        const size_t len = std::min(w, num_kmers - block_start);
        // Sized ahead so a window's write needs no capacity test;
        // doubling keeps the zero-fill under twice the output.
        if (out.size() < count + len)
            out.resize(std::max(2 * out.size(), count + len));
        for (size_t o = 0; o < len; ++o) {
            pushBase(block_start + o + k - 1);
            block_hash[o] = hash64(packed, mask);
        }

        // Block 0 has no predecessor: only its last k-mer ends a window.
        const size_t first_window = block_start == 0 ? w - 1 : 0;
        uint64_t prefix_hash = kNone.hash;
        uint32_t prefix_pos = 0;
        for (size_t o = 0; o < len; ++o) {
            const uint64_t hash = block_hash[o];
            const auto pos = static_cast<uint32_t>(block_start + o);
            const bool lower = hash < prefix_hash;
            prefix_hash = lower ? hash : prefix_hash;
            prefix_pos = choose(lower, pos, prefix_pos);
            if (o < first_window)
                continue;
            const Minimizer left = suffix_min[o + 1];
            const bool take_left = left.hash <= prefix_hash;
            const uint32_t pick = choose(take_left, left.pos, prefix_pos);
            out[count] = {take_left ? left.hash : prefix_hash, pick};
            count += pick != last_pos ? 1 : 0;
            last_pos = pick;
        }
        uint64_t right_hash = kNone.hash;
        uint32_t right_pos = 0;
        for (size_t o = len; o-- > 0;) {
            const uint64_t hash = block_hash[o];
            const bool here = hash <= right_hash;
            right_hash = here ? hash : right_hash;
            right_pos = choose(here, static_cast<uint32_t>(block_start + o),
                               right_pos);
            suffix_min[o] = {right_hash, right_pos};
        }
    }
    out.resize(count);
    SEGRAM_CHECK((seen & kInvalidBaseCode) == 0,
                 "sequence contains a non-ACGT character");
}

std::vector<Minimizer>
computeMinimizersNaive(std::string_view seq, const SketchConfig &config)
{
    validateConfig(config);
    std::vector<Minimizer> out;
    const int64_t m = static_cast<int64_t>(seq.size());
    const int64_t num_kmers = m - config.k + 1;
    if (num_kmers < config.w)
        return out;

    for (int64_t window = 0; window + config.w <= num_kmers; ++window) {
        Minimizer best{~uint64_t{0}, 0};
        for (int64_t j = window; j < window + config.w; ++j) {
            const uint64_t hash = kmerHash(seq, j, config);
            if (hash < best.hash) // '<' keeps the leftmost tie
                best = {hash, static_cast<uint32_t>(j)};
        }
        if (out.empty() || out.back() != best)
            out.push_back(best);
    }
    return out;
}

} // namespace segram::seed
