/**
 * @file
 * Tests for minimizer sketching (Fig. 8) and the MinSeed stage
 * (Fig. 9): the O(m) single-loop algorithm against the naive reference,
 * the shared-minimizer guarantee, and seed-to-region conversion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

#include "src/graph/graph_builder.h"
#include "src/index/minimizer_index.h"
#include "src/seed/chaining.h"
#include "src/seed/minimizer.h"
#include "src/seed/minseed.h"
#include "src/sim/genome_sim.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::seed
{
namespace
{

TEST(Minimizer, EmptyWhenSequenceTooShort)
{
    const SketchConfig config{5, 4}; // needs w+k-1 = 8 bases
    EXPECT_TRUE(computeMinimizers("ACGTACG", config).empty());
    EXPECT_EQ(computeMinimizers("ACGTACGT", config).size(), 1u);
}

TEST(Minimizer, SingleLoopMatchesNaive)
{
    // The load-bearing property: the block-minimum O(m) algorithm must
    // produce exactly the nested-loop definition of Section 6. The
    // parameters cover w = 1, both sides of k = 16 (where a hash stops
    // fitting 32 bits) and k = 31; the lengths cover w+k-2 (no window),
    // w+k-1 (exactly one) and random lengths across block boundaries.
    Rng rng(11);
    struct Param { int k; int w; };
    for (const auto &param :
         {Param{1, 1}, Param{4, 3}, Param{7, 5}, Param{11, 10},
          Param{15, 10}, Param{16, 10}, Param{17, 2}, Param{21, 11},
          Param{31, 1}, Param{31, 10}}) {
        const SketchConfig config{param.k, param.w};
        const auto min_len = static_cast<uint64_t>(param.k + param.w - 1);
        std::vector<uint64_t> lengths = {min_len - 1, min_len};
        for (int trial = 0; trial < 20; ++trial)
            lengths.push_back(min_len + 1 + rng.nextBelow(500));
        for (const uint64_t len : lengths) {
            const std::string seq = sim::randomSequence(len, rng);
            const auto got = computeMinimizers(seq, config);
            EXPECT_EQ(got, computeMinimizersNaive(seq, config))
                << "k=" << param.k << " w=" << param.w << " len=" << len;
            if (len < min_len) {
                EXPECT_TRUE(got.empty());
            } else if (len == min_len) {
                EXPECT_EQ(got.size(), 1u);
            }

            std::string lower = seq;
            for (char &base : lower)
                base = static_cast<char>(std::tolower(base));
            EXPECT_EQ(computeMinimizers(lower, config), got)
                << "lowercase k=" << param.k << " w=" << param.w;

            if (len < min_len)
                continue;
            for (const size_t at : {size_t{0}, seq.size() - 1}) {
                std::string bad = seq;
                bad[at] = 'N';
                EXPECT_THROW(computeMinimizers(bad, config), InputError)
                    << "N at " << at << " k=" << param.k
                    << " w=" << param.w;
            }
        }
    }
}

TEST(Minimizer, SharedExactMatchSharesMinimizer)
{
    // Two sequences sharing an exact stretch of >= w+k-1 bases must
    // share at least one minimizer (the guarantee seeding relies on).
    Rng rng(13);
    const SketchConfig config{11, 8};
    const int need = config.w + config.k - 1;
    for (int trial = 0; trial < 30; ++trial) {
        const std::string shared =
            sim::randomSequence(need + rng.nextBelow(30), rng);
        const std::string a =
            sim::randomSequence(rng.nextBelow(40), rng) + shared +
            sim::randomSequence(rng.nextBelow(40), rng);
        const std::string b =
            sim::randomSequence(rng.nextBelow(40), rng) + shared +
            sim::randomSequence(rng.nextBelow(40), rng);
        std::set<uint64_t> hashes_a;
        for (const auto &m : computeMinimizers(a, config))
            hashes_a.insert(m.hash);
        bool found = false;
        for (const auto &m : computeMinimizers(b, config))
            found |= hashes_a.count(m.hash) > 0;
        EXPECT_TRUE(found) << "trial " << trial;
    }
}

TEST(Minimizer, DensityNearTheoreticalRate)
{
    // Expected density of <w,k>-minimizers is ~2/(w+1) per position.
    Rng rng(17);
    const SketchConfig config{15, 10};
    const std::string seq = sim::randomSequence(100'000, rng);
    const auto minimizers = computeMinimizers(seq, config);
    const double density =
        static_cast<double>(minimizers.size()) /
        static_cast<double>(seq.size());
    const double expected = 2.0 / (config.w + 1);
    EXPECT_NEAR(density, expected, expected * 0.15);
}

TEST(Minimizer, RejectsBadInputs)
{
    EXPECT_THROW(computeMinimizers("ACGT", {0, 5}), InputError);
    EXPECT_THROW(computeMinimizers("ACGT", {32, 5}), InputError);
    EXPECT_THROW(computeMinimizers("ACGT", {4, 0}), InputError);
    EXPECT_THROW(computeMinimizers("ACGNACGT", {3, 2}), InputError);
}

TEST(Minimizer, KmerHashMatchesSketch)
{
    const SketchConfig config{5, 1};
    const std::string seq = "ACGTACGTAC";
    // With w=1 every k-mer is a minimizer; hashes must agree.
    const auto minimizers = computeMinimizers(seq, config);
    ASSERT_EQ(minimizers.size(), seq.size() - config.k + 1);
    for (const auto &m : minimizers)
        EXPECT_EQ(m.hash, kmerHash(seq, m.pos, config));
}

class MinSeedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(23);
        reference_ = sim::randomSequence(20'000, rng);
        graph::BuildOptions options;
        options.maxNodeLen = 300;
        graph_ = graph::buildGraph(reference_, {}, options);
        index::IndexConfig config;
        config.sketch = {11, 6};
        config.bucketBits = 12;
        index_ = index::MinimizerIndex::build(graph_, config);
    }

    std::string reference_;
    graph::GenomeGraph graph_;
    index::MinimizerIndex index_;
};

TEST_F(MinSeedTest, ExactReadSeedsCoverTrueRegion)
{
    MinSeedConfig config;
    config.errorRate = 0.10;
    const MinSeed minseed(graph_, index_, config);
    Rng rng(29);
    for (int trial = 0; trial < 20; ++trial) {
        const uint64_t true_start = rng.nextBelow(reference_.size() - 600);
        const std::string read = reference_.substr(true_start, 500);
        MinSeedStats stats;
        const auto regions = minseed.seedRead(read, &stats);
        ASSERT_FALSE(regions.empty());
        EXPECT_GT(stats.minimizersComputed, 0u);
        EXPECT_GE(stats.minimizersComputed, stats.minimizersKept);
        // At least one region must contain the true location. Since the
        // backbone is a chain, linear coordinates equal reference ones.
        bool covered = false;
        for (const auto &region : regions) {
            covered |= region.start <= true_start &&
                       true_start + read.size() - 1 <= region.end + 8;
        }
        EXPECT_TRUE(covered) << "true start " << true_start;
    }
}

TEST_F(MinSeedTest, RegionFollowsFig9Formulas)
{
    MinSeedConfig config;
    config.errorRate = 0.10;
    config.mergeDuplicateRegions = false;
    const MinSeed minseed(graph_, index_, config);
    const std::string read = reference_.substr(1'000, 400);
    const auto regions = minseed.seedRead(read);
    const int k = index_.sketch().k;
    const auto m = static_cast<int64_t>(read.size());
    for (const auto &region : regions) {
        const int64_t a = region.minimizerPos;
        const int64_t b = a + k - 1;
        const uint64_t c = graph_.node(region.seed.node).linearOffset +
                           region.seed.offset;
        const uint64_t d = c + k - 1;
        const auto left =
            static_cast<uint64_t>(std::llround(a * 1.10));
        const uint64_t expect_start = c >= left ? c - left : 0;
        const uint64_t expect_end = std::min<uint64_t>(
            d + static_cast<uint64_t>(std::llround((m - b - 1) * 1.10)),
            graph_.totalSeqLen() - 1);
        EXPECT_EQ(region.start, expect_start);
        EXPECT_EQ(region.end, expect_end);
    }
}

TEST_F(MinSeedTest, FrequencyThresholdFiltersSeeds)
{
    // With threshold 1, only unique minimizers survive.
    MinSeedConfig strict;
    strict.frequencyThreshold = 1;
    const MinSeed minseed_strict(graph_, index_, strict);
    MinSeedConfig loose;
    loose.frequencyThreshold = 100000;
    const MinSeed minseed_loose(graph_, index_, loose);
    const std::string read = reference_.substr(2'000, 300);
    MinSeedStats strict_stats;
    MinSeedStats loose_stats;
    minseed_strict.seedRead(read, &strict_stats);
    minseed_loose.seedRead(read, &loose_stats);
    EXPECT_LE(strict_stats.seedsFetched, loose_stats.seedsFetched);
    EXPECT_GT(loose_stats.seedsFetched, 0u);
}

TEST_F(MinSeedTest, DuplicateRegionsMergedWhenEnabled)
{
    MinSeedConfig merged_config;
    merged_config.mergeDuplicateRegions = true;
    MinSeedConfig raw_config;
    raw_config.mergeDuplicateRegions = false;
    const MinSeed merged(graph_, index_, merged_config);
    const MinSeed raw(graph_, index_, raw_config);
    const std::string read = reference_.substr(3'000, 300);
    EXPECT_LE(merged.seedRead(read).size(), raw.seedRead(read).size());
}

TEST_F(MinSeedTest, BufferReuseMatchesReturningOverload)
{
    // One warm scratch + region vector across many reads must produce
    // exactly what the allocating overload produces, stats included.
    const MinSeed minseed(graph_, index_);
    Rng rng(31);
    SeedScratch scratch;
    std::vector<CandidateRegion> reused;
    for (int trial = 0; trial < 25; ++trial) {
        const uint64_t start = rng.nextBelow(reference_.size() - 400);
        const std::string read = reference_.substr(start, 350);
        MinSeedStats fresh_stats;
        MinSeedStats reused_stats;
        const auto fresh = minseed.seedRead(read, &fresh_stats);
        minseed.seedRead(read, reused, scratch, &reused_stats);
        EXPECT_EQ(fresh, reused) << "trial " << trial;
        EXPECT_EQ(fresh_stats.minimizersComputed,
                  reused_stats.minimizersComputed);
        EXPECT_EQ(fresh_stats.seedsFetched, reused_stats.seedsFetched);
        EXPECT_EQ(fresh_stats.regionsEmitted,
                  reused_stats.regionsEmitted);
    }
}

TEST(Minimizer, BufferReuseMatchesReturningOverload)
{
    Rng rng(37);
    const SketchConfig config{11, 8};
    MinimizerScratch scratch;
    std::vector<Minimizer> reused;
    for (int trial = 0; trial < 25; ++trial) {
        const std::string seq =
            sim::randomSequence(20 + rng.nextBelow(400), rng);
        computeMinimizers(seq, config, reused, scratch);
        EXPECT_EQ(computeMinimizers(seq, config), reused)
            << "trial " << trial;
    }
}

TEST_F(MinSeedTest, ShortReadYieldsNoRegions)
{
    const MinSeed minseed(graph_, index_);
    // Shorter than w+k-1: no minimizers, hence no regions.
    const auto regions = minseed.seedRead("ACGTACGTACGT");
    EXPECT_TRUE(regions.empty());
}

// ------------------------------------------------------------ chaining

TEST(ChainSeeds, EmptyInputYieldsNoChains)
{
    EXPECT_TRUE(chainSeeds({}, {}).empty());
    ChainConfig config;
    config.maxChains = 3;
    EXPECT_TRUE(chainSeeds({}, config).empty());
}

TEST(Chain, EmptyChainEndpointsThrowInsteadOfUb)
{
    // front()/back() on an empty hits vector is undefined behaviour;
    // the accessors must fail loudly instead.
    const Chain empty;
    EXPECT_THROW(empty.refStart(), InputError);
    EXPECT_THROW(empty.refEnd(), InputError);
    const Chain one{{{42, 7}}, 1};
    EXPECT_EQ(one.refStart(), 42u);
    EXPECT_EQ(one.refEnd(), 42u);
}

TEST(ChainSeeds, CoDiagonalSeedsFormOneChain)
{
    // Three seeds on the exact same diagonal (refPos - readPos = 1000)
    // within the gap limit must group into a single chain, ordered by
    // reference position.
    const std::vector<SeedHit> hits = {
        {1200, 200}, {1000, 0}, {1100, 100}};
    const auto chains = chainSeeds(hits, {});
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].score, 3);
    ASSERT_EQ(chains[0].hits.size(), 3u);
    EXPECT_EQ(chains[0].hits[0].refPos, 1000u);
    EXPECT_EQ(chains[0].hits[1].refPos, 1100u);
    EXPECT_EQ(chains[0].hits[2].refPos, 1200u);
    EXPECT_EQ(chains[0].refStart(), 1000u);
    EXPECT_EQ(chains[0].refEnd(), 1200u);
}

TEST(ChainSeeds, DistantDiagonalsSplitIntoChains)
{
    // Two co-diagonal groups far outside the diagonal band: the bigger
    // group must win (sorted by descending score).
    const std::vector<SeedHit> hits = {
        {5000, 10}, {9000, 0},    {5100, 110},
        {9100, 100}, {5200, 210},
    };
    ChainConfig config;
    config.diagonalBand = 64;
    const auto chains = chainSeeds(hits, config);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].score, 3);
    EXPECT_EQ(chains[0].refStart(), 5000u);
    EXPECT_EQ(chains[1].score, 2);
    EXPECT_EQ(chains[1].refStart(), 9000u);
}

TEST(ChainSeeds, DiagonalDriftWithinBandStaysChained)
{
    // Drift of 10 (insertion-like) is inside the default band of 64;
    // drift of 1000 is not.
    const std::vector<SeedHit> within = {{1000, 0}, {1110, 100}};
    EXPECT_EQ(chainSeeds(within, {}).size(), 1u);
    const std::vector<SeedHit> outside = {{1000, 0}, {2100, 100}};
    EXPECT_EQ(chainSeeds(outside, {}).size(), 2u);
}

TEST(ChainSeeds, ReferenceGapSplitsChain)
{
    // Same diagonal but a reference gap beyond maxGap must split.
    ChainConfig config;
    config.maxGap = 500;
    const std::vector<SeedHit> hits = {{1000, 0}, {2000, 1000}};
    EXPECT_EQ(chainSeeds(hits, config).size(), 2u);
    config.maxGap = 2000;
    EXPECT_EQ(chainSeeds(hits, config).size(), 1u);
}

TEST(ChainSeeds, EqualScoresOrderByReferenceStart)
{
    const std::vector<SeedHit> hits = {{9000, 0}, {1000, 0}, {5000, 0}};
    const auto chains = chainSeeds(hits, {});
    ASSERT_EQ(chains.size(), 3u);
    EXPECT_EQ(chains[0].refStart(), 1000u);
    EXPECT_EQ(chains[1].refStart(), 5000u);
    EXPECT_EQ(chains[2].refStart(), 9000u);
}

TEST(ChainSeeds, MaxChainsTruncatesAfterSorting)
{
    // Four single-seed chains plus one double-seed chain; maxChains 2
    // must keep the double (best score) and the earliest single.
    const std::vector<SeedHit> hits = {
        {9000, 0}, {1000, 0}, {5000, 0},
        {20000, 0}, {20100, 100},
    };
    ChainConfig config;
    config.maxChains = 2;
    const auto chains = chainSeeds(hits, config);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].score, 2);
    EXPECT_EQ(chains[0].refStart(), 20000u);
    EXPECT_EQ(chains[1].score, 1);
    EXPECT_EQ(chains[1].refStart(), 1000u);

    // maxChains = 0 keeps everything.
    config.maxChains = 0;
    EXPECT_EQ(chainSeeds(hits, config).size(), 4u);
}

TEST(ChainSeeds, ScratchOverloadMatchesConvenienceOverload)
{
    // The workspace overload (span input, scratch-owned storage, radix
    // sort) must produce chain-for-chain identical results to the
    // vector overload across random inputs spanning both the
    // insertion-sort and radix paths.
    Rng rng(77);
    ChainScratch scratch;
    for (int trial = 0; trial < 50; ++trial) {
        const size_t count = 1 + rng.nextBelow(200);
        std::vector<SeedHit> hits;
        hits.reserve(count);
        for (size_t i = 0; i < count; ++i) {
            const uint64_t ref = rng.nextBelow(1'000'000);
            const auto read =
                static_cast<uint32_t>(rng.nextBelow(1'000));
            hits.push_back({ref, read});
        }
        ChainConfig config;
        config.diagonalBand = 1 + rng.nextBelow(128);
        config.maxGap = 1 + rng.nextBelow(4'000);
        config.maxChains = static_cast<int>(rng.nextBelow(8));

        const auto expect = chainSeeds(hits, config);
        // Reuse one scratch across all trials: stale pool contents
        // from bigger earlier trials must never leak into results.
        const auto got = chainSeeds(std::span<const SeedHit>(hits),
                                    config, scratch);
        ASSERT_EQ(expect.size(), got.size()) << "trial " << trial;
        for (size_t c = 0; c < expect.size(); ++c) {
            EXPECT_EQ(expect[c].score, got[c].score)
                << "trial " << trial << ", chain " << c;
            EXPECT_EQ(expect[c].hits, got[c].hits)
                << "trial " << trial << ", chain " << c;
        }
    }
}

/**
 * chainSeeds by its definition: a comparison sort of the hits by
 * (diagonal, refPos), the same chain scan, and the same chain order.
 */
std::vector<Chain>
chainSeedsByComparison(std::vector<SeedHit> hits, const ChainConfig &config)
{
    const auto diagonal = [](const SeedHit &hit) {
        return hit.refPos + (uint64_t{1} << 32) - hit.readPos;
    };
    std::sort(hits.begin(), hits.end(),
              [&](const SeedHit &a, const SeedHit &b) {
                  if (diagonal(a) != diagonal(b))
                      return diagonal(a) < diagonal(b);
                  return a.refPos < b.refPos;
              });
    std::vector<Chain> chains;
    for (const SeedHit &hit : hits) {
        bool extend = !chains.empty();
        if (extend) {
            const SeedHit &prev = chains.back().hits.back();
            extend = diagonal(hit) - diagonal(prev) <= config.diagonalBand &&
                     hit.refPos >= prev.refPos &&
                     hit.refPos - prev.refPos <= config.maxGap;
        }
        if (!extend)
            chains.emplace_back();
        chains.back().hits.push_back(hit);
        chains.back().score = static_cast<int>(chains.back().hits.size());
    }
    std::sort(chains.begin(), chains.end(),
              [](const Chain &a, const Chain &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  if (a.refStart() != b.refStart())
                      return a.refStart() < b.refStart();
                  return a.hits.front().readPos < b.hits.front().readPos;
              });
    if (config.maxChains > 0 &&
        chains.size() > static_cast<size_t>(config.maxChains))
        chains.resize(static_cast<size_t>(config.maxChains));
    return chains;
}

TEST(ChainSeeds, RadixSortMatchesTheComparisonOrder)
{
    // Hit counts on both sides of the 32-hit insertion-sort cutoff,
    // with repeated hits and reference spans from a few bases to 2^40,
    // so every byte of both radix keys gets a pass somewhere.
    Rng rng(2024);
    ChainScratch scratch;
    for (const size_t count : {1, 2, 31, 32, 33, 34, 100, 257, 1000}) {
        for (const uint64_t span :
             {uint64_t{64}, uint64_t{5'000}, uint64_t{1} << 40}) {
            SCOPED_TRACE("count " + std::to_string(count) + ", span " +
                         std::to_string(span));
            std::vector<SeedHit> hits;
            for (size_t i = 0; i < count; ++i) {
                if (!hits.empty() && rng.nextBelow(8) == 0) {
                    hits.push_back(hits[rng.nextBelow(hits.size())]);
                    continue;
                }
                hits.push_back(
                    {rng.nextBelow(span),
                     static_cast<uint32_t>(rng.nextBelow(20'000))});
            }
            ChainConfig config;
            config.diagonalBand = 1 + rng.nextBelow(256);
            config.maxGap = 1 + rng.nextBelow(span);
            const auto expect = chainSeedsByComparison(hits, config);
            const auto got = chainSeeds(std::span<const SeedHit>(hits),
                                        config, scratch);
            ASSERT_EQ(got.size(), expect.size());
            for (size_t c = 0; c < expect.size(); ++c) {
                EXPECT_EQ(got[c].score, expect[c].score) << "chain " << c;
                EXPECT_EQ(got[c].hits, expect[c].hits) << "chain " << c;
            }
        }
    }
}

TEST(ChainSeeds, ScratchResultsValidUntilNextCall)
{
    ChainScratch scratch;
    const std::vector<SeedHit> first = {{1000, 0}, {1100, 100}};
    const auto chains = chainSeeds(std::span<const SeedHit>(first), {},
                                   scratch);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].score, 2);

    // A later call on the same scratch recycles the pool...
    const std::vector<SeedHit> second = {{5000, 0}};
    const auto next = chainSeeds(std::span<const SeedHit>(second), {},
                                 scratch);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].refStart(), 5000u);
    EXPECT_EQ(next[0].hits.size(), 1u);
}

TEST(MinSeedConfigTest, RejectsBadErrorRate)
{
    Rng rng(1);
    const std::string reference = sim::randomSequence(2'000, rng);
    const auto graph = graph::buildGraph(reference, {});
    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    const auto index = index::MinimizerIndex::build(graph, index_config);
    MinSeedConfig config;
    config.errorRate = 1.5;
    EXPECT_THROW(MinSeed(graph, index, config), InputError);
}

} // namespace
} // namespace segram::seed
