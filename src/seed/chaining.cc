#include "src/seed/chaining.h"

#include <algorithm>

#include "src/util/radix_sort.h"

namespace segram::seed
{

namespace
{

/**
 * The chaining sort key: hits that map the same read region to the
 * same reference region share a (banded) diagonal. The offset keeps
 * the subtraction non-negative for early read hits.
 */
inline uint64_t
diagonal(const SeedHit &hit)
{
    return hit.refPos + (uint64_t{1} << 32) - hit.readPos;
}

/** Comparator of the hit sort: (diagonal, refPos). Two hits equal
 *  under it are byte-identical (equal diagonal + refPos pins
 *  readPos), so the order is total and sort-algorithm-independent. */
inline bool
keyedLess(uint64_t key_a, uint64_t ref_a, uint64_t key_b, uint64_t ref_b)
{
    if (key_a != key_b)
        return key_a < key_b;
    return ref_a < ref_b;
}

/** Hit counts below this use insertion sort: reads typically seed a
 *  few dozen hits, where O(N^2) on a cache-resident array beats any
 *  bucketed pass. */
constexpr size_t kInsertionSortMax = 32;

} // namespace

std::span<Chain>
chainSeeds(std::span<const SeedHit> hits, const ChainConfig &config,
           ChainScratch &scratch)
{
    using KeyedHit = ChainScratch::KeyedHit;
    std::vector<KeyedHit> &keyed = scratch.keyed_;
    keyed.clear();
    if (hits.empty())
        return {};
    keyed.reserve(hits.size());
    for (const SeedHit &hit : hits)
        keyed.push_back({diagonal(hit), hit});

    if (keyed.size() <= kInsertionSortMax) {
        // Insertion sort by (key, refPos): the typical small-N case.
        for (size_t i = 1; i < keyed.size(); ++i) {
            KeyedHit cur = keyed[i];
            size_t j = i;
            while (j > 0 &&
                   keyedLess(cur.key, cur.hit.refPos, keyed[j - 1].key,
                             keyed[j - 1].hit.refPos)) {
                keyed[j] = keyed[j - 1];
                --j;
            }
            keyed[j] = cur;
        }
    } else {
        // Stable LSD radix over the secondary key (refPos) first and
        // the primary key (diagonal) second: a stable lexicographic
        // (diagonal, refPos) sort. Hits of one read cluster tightly,
        // so usually only a few of the 16 byte passes run.
        std::vector<KeyedHit> &tmp = scratch.keyedTmp_;
        tmp.resize(keyed.size());
        const std::span<KeyedHit> by_ref = util::radixSortStable(
            std::span<KeyedHit>(keyed), std::span<KeyedHit>(tmp),
            [](const KeyedHit &kh) { return kh.hit.refPos; });
        const std::span<KeyedHit> other(
            by_ref.data() == keyed.data() ? tmp.data() : keyed.data(),
            keyed.size());
        const std::span<KeyedHit> sorted = util::radixSortStable(
            by_ref, other, [](const KeyedHit &kh) { return kh.key; });
        if (sorted.data() != keyed.data())
            std::copy(sorted.begin(), sorted.end(), keyed.begin());
    }

    // Scan the sorted hits, growing chains in the reusable pool. Pool
    // entries beyond `used` are leftovers from earlier calls whose
    // hit vectors keep their capacity.
    std::vector<Chain> &pool = scratch.pool_;
    size_t used = 0;
    const auto openChain = [&]() -> Chain & {
        if (used == pool.size())
            pool.emplace_back();
        Chain &chain = pool[used++];
        chain.hits.clear();
        chain.score = 0;
        return chain;
    };
    Chain *current = nullptr;
    for (const KeyedHit &kh : keyed) {
        if (current != nullptr) {
            const SeedHit &prev = current->hits.back();
            const uint64_t diag_drift = kh.key - diagonal(prev);
            const bool same_chain =
                diag_drift <= config.diagonalBand &&
                kh.hit.refPos >= prev.refPos &&
                kh.hit.refPos - prev.refPos <= config.maxGap;
            if (!same_chain)
                current = nullptr;
        }
        if (current == nullptr)
            current = &openChain();
        current->hits.push_back(kh.hit);
    }
    for (size_t c = 0; c < used; ++c)
        pool[c].score = static_cast<int>(pool[c].hits.size());

    // Score order with full tie-breaks (see header); sorting moves
    // whole Chain objects, which swaps hit-vector storage without
    // allocating.
    std::sort(pool.begin(), pool.begin() + used,
              [](const Chain &a, const Chain &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  if (a.hits.front().refPos != b.hits.front().refPos)
                      return a.hits.front().refPos <
                             b.hits.front().refPos;
                  return a.hits.front().readPos <
                         b.hits.front().readPos;
              });
    if (config.maxChains > 0 &&
        used > static_cast<size_t>(config.maxChains))
        used = static_cast<size_t>(config.maxChains);
    return {pool.data(), used};
}

std::vector<Chain>
chainSeeds(std::vector<SeedHit> hits, const ChainConfig &config)
{
    ChainScratch scratch;
    const std::span<Chain> chains =
        chainSeeds(std::span<const SeedHit>(hits), config, scratch);
    std::vector<Chain> out;
    out.reserve(chains.size());
    for (Chain &chain : chains)
        out.push_back(std::move(chain));
    return out;
}

} // namespace segram::seed
