/**
 * @file
 * The repo's one radix sort: a stable least-significant-digit byte
 * radix by a 64-bit key. Chaining orders each read's seed hits with it
 * and the index build orders every (minimizer, location) hit of a
 * chromosome with it.
 *
 * Key bits that are equal in every element are found in one pass up
 * front, and a byte holding only such bits costs no pass, so a key
 * whose significant bits are few sorts in few passes. With a pool the
 * elements are cut into contiguous blocks: each pass counts every
 * block's byte values in parallel, gives block b's elements of byte
 * value v the slots after those of blocks < b, and scatters the blocks
 * in parallel. That is exactly the serial order, so the result is the
 * same with or without a pool, at every pool size.
 */

#ifndef SEGRAM_SRC_UTIL_RADIX_SORT_H
#define SEGRAM_SRC_UTIL_RADIX_SORT_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace segram::util
{

/**
 * Sorts @p data stably by @p key, an element -> uint64_t function,
 * using @p scratch (at least data.size() elements) as the ping-pong
 * buffer. Elements are moved by assignment, so T should be trivially
 * copyable.
 *
 * Without a pool (or on a range BlockSplit keeps in one block) the
 * sort runs on the calling thread and allocates nothing. With one it
 * blocks on the pool, so it must not be called from one of the pool's
 * workers.
 *
 * @return The span, @p data or the front of @p scratch, that holds the
 *         sorted elements.
 */
template <typename T, typename KeyFn>
std::span<T>
radixSortStable(std::span<T> data, std::span<T> scratch, KeyFn key,
                ThreadPool *pool = nullptr)
{
    SEGRAM_DCHECK(scratch.size() >= data.size(),
                  "radix scratch shorter than its data");
    const size_t n = data.size();
    if (n < 2)
        return data;
    const BlockSplit split(n, pool);
    const size_t blocks = split.count;

    struct Block
    {
        std::array<size_t, 256> slot{}; ///< count, then next output slot
        uint64_t ones = 0;              ///< OR of the block's keys
        uint64_t zeros = 0;             ///< OR of their complements
    };
    // One block lives on the stack: the serial sort allocates nothing.
    Block single;
    std::vector<Block> many(blocks > 1 ? blocks : 0);
    Block *state = blocks > 1 ? many.data() : &single;

    T *src = data.data();
    T *dst = scratch.data();
    forEachItem(pool, blocks, [&](size_t b) {
        const size_t end = split.end(b);
        uint64_t ones = 0;
        uint64_t zeros = 0;
        for (size_t i = split.begin(b); i < end; ++i) {
            const uint64_t k = key(src[i]);
            ones |= k;
            zeros |= ~k;
        }
        state[b].ones = ones;
        state[b].zeros = zeros;
    });
    uint64_t ones = 0;
    uint64_t zeros = 0;
    for (size_t b = 0; b < blocks; ++b) {
        ones |= state[b].ones;
        zeros |= state[b].zeros;
    }
    const uint64_t varying = ones & zeros; // bits set in some key only

    for (int shift = 0; shift < 64; shift += 8) {
        if (((varying >> shift) & 0xff) == 0)
            continue; // this byte is identical in every key
        const auto digit = [&](const T &element) {
            return (key(element) >> shift) & 0xff;
        };
        // The loops count and scatter through a local copy of the
        // block's slots, which no store through dst can alias.
        forEachItem(pool, blocks, [&](size_t b) {
            const size_t end = split.end(b);
            std::array<size_t, 256> count{};
            for (size_t i = split.begin(b); i < end; ++i)
                ++count[digit(src[i])];
            state[b].slot = count;
        });
        size_t offset = 0;
        for (size_t v = 0; v < 256; ++v) {
            for (size_t b = 0; b < blocks; ++b) {
                const size_t count = state[b].slot[v];
                state[b].slot[v] = offset;
                offset += count;
            }
        }
        forEachItem(pool, blocks, [&](size_t b) {
            const size_t end = split.end(b);
            std::array<size_t, 256> slot = state[b].slot;
            for (size_t i = split.begin(b); i < end; ++i)
                dst[slot[digit(src[i])]++] = src[i];
        });
        std::swap(src, dst);
    }
    return {src, n};
}

} // namespace segram::util

#endif // SEGRAM_SRC_UTIL_RADIX_SORT_H
