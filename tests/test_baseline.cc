/**
 * @file
 * Tests for the baseline module: DP string aligners, the DP graph
 * oracle (against brute force on tiny cases), chaining, and the
 * GraphAligner-like / vg-like software mappers.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/seed/chaining.h"
#include "src/baseline/dp_s2g.h"
#include "src/baseline/dp_s2s.h"
#include "src/baseline/mappers.h"
#include "src/graph/graph_builder.h"
#include "src/graph/linearize.h"
#include "src/index/minimizer_index.h"
#include "src/sim/genome_sim.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::baseline
{
namespace
{

TEST(DpS2S, GlobalKnownCases)
{
    EXPECT_EQ(nwGlobal("ACGT", "ACGT").editDistance, 0);
    EXPECT_EQ(nwGlobal("ACGT", "ACCT").editDistance, 1);
    EXPECT_EQ(nwGlobal("ACGT", "AGT").editDistance, 1);
    EXPECT_EQ(nwGlobal("ACGT", "AACGT").editDistance, 1);
    EXPECT_EQ(nwGlobal("AAAA", "TTTT").editDistance, 4);
    // Classic: kitten/sitting equivalent in DNA space.
    EXPECT_EQ(nwGlobal("ACGTACGT", "TGCATGCA").editDistance, 6);
}

TEST(DpS2S, GlobalCigarValidates)
{
    const auto result = nwGlobal("ACGTACGT", "ACTACGGT");
    EXPECT_TRUE(result.cigar.validate("ACTACGGT", "ACGTACGT"));
    EXPECT_EQ(result.cigar.editDistance(),
              static_cast<uint64_t>(result.editDistance));
}

TEST(DpS2S, SemiGlobalFreeEnds)
{
    // Pattern embedded in the middle: distance 0.
    EXPECT_EQ(semiGlobal("TTTACGTTTT", "ACGT").editDistance, 0);
    // One substitution, regardless of flanks.
    EXPECT_EQ(semiGlobal("TTTACGTTTT", "ACCT").editDistance, 1);
}

TEST(DpS2S, SemiGlobalCigarValidatesAgainstWindow)
{
    const std::string text = "TTTACGTACGTTT";
    const std::string read = "CGTACG";
    const auto result = semiGlobal(text, read);
    const std::string window = text.substr(
        result.textStart, result.textEnd - result.textStart);
    EXPECT_TRUE(result.cigar.validate(read, window));
}

TEST(DpS2S, BandedConvergesToExact)
{
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const std::string text = sim::randomSequence(60, rng);
        const std::string read =
            text.substr(5, 30) + sim::randomSequence(3, rng);
        const int exact = semiGlobal(text, read, false).editDistance;
        const int banded = bandedSemiGlobalDistance(text, read, 40);
        EXPECT_EQ(banded, exact);
        // Tighter bands can only raise the distance.
        EXPECT_GE(bandedSemiGlobalDistance(text, read, 1), exact);
    }
}

TEST(DpS2G, ChainEqualsStringDp)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const std::string text = sim::randomSequence(50, rng);
        const std::string read = sim::randomSequence(20, rng);
        const auto g = graph::buildGraph(text, {});
        const auto lin = graph::linearizeWhole(g);
        EXPECT_EQ(dpGraphDistance(lin, read).editDistance,
                  semiGlobal(text, read, false).editDistance);
        const auto full = dpGraphAlign(lin, read);
        EXPECT_EQ(full.editDistance,
                  semiGlobal(text, read, false).editDistance);
        EXPECT_EQ(full.cigar.editDistance(),
                  static_cast<uint64_t>(full.editDistance));
        EXPECT_EQ(full.cigar.readLength(), read.size());
    }
}

TEST(DpS2G, AltPathBeatsLinear)
{
    // Read carries the ALT allele: graph DP finds 0, string DP finds 1.
    const auto g = graph::buildGraph("ACGTACGT", {{3, "T", "G"}});
    const auto lin = graph::linearizeWhole(g);
    EXPECT_EQ(dpGraphDistance(lin, "ACGGACGT").editDistance, 0);
    EXPECT_EQ(semiGlobal("ACGTACGT", "ACGGACGT", false).editDistance, 1);
}

TEST(DpS2G, DistanceAndAlignAgree)
{
    Rng rng(7);
    for (int trial = 0; trial < 15; ++trial) {
        const std::string reference = sim::randomSequence(80, rng);
        std::vector<graph::Variant> variants;
        for (uint64_t pos = 10; pos + 10 < reference.size(); pos += 25) {
            char alt = rng.nextBase();
            while (alt == reference[pos])
                alt = rng.nextBase();
            variants.push_back({pos, std::string(1, reference[pos]),
                                std::string(1, alt)});
        }
        const auto g = graph::buildGraph(reference, variants);
        const auto lin = graph::linearizeWhole(g);
        const std::string read = sim::randomSequence(25, rng);
        EXPECT_EQ(dpGraphDistance(lin, read).editDistance,
                  dpGraphAlign(lin, read).editDistance);
    }
}

TEST(Chaining, GroupsCoDiagonalSeeds)
{
    std::vector<SeedHit> hits = {
        {1000, 10}, {1050, 60}, {1100, 110}, // chain A, diagonal 990
        {5000, 10}, {5040, 50},              // chain B, diagonal 4990
        {9000, 20},                          // singleton
    };
    const auto chains = chainSeeds(hits);
    ASSERT_EQ(chains.size(), 3u);
    EXPECT_EQ(chains[0].score, 3);
    EXPECT_EQ(chains[0].refStart(), 1000u);
    EXPECT_EQ(chains[1].score, 2);
    EXPECT_EQ(chains[2].score, 1);
}

TEST(Chaining, RespectsGapAndBand)
{
    ChainConfig config;
    config.maxGap = 100;
    // Same diagonal but a 10 kb gap: two chains.
    const auto chains = chainSeeds({{1000, 10}, {11000, 10}}, config);
    EXPECT_EQ(chains.size(), 2u);
    // Diagonal drift within the band chains; beyond it splits.
    config.diagonalBand = 4;
    EXPECT_EQ(chainSeeds({{1000, 10}, {1003, 10}}, config).size(), 1u);
    EXPECT_EQ(chainSeeds({{1000, 10}, {1010, 10}}, config).size(), 2u);
}

TEST(Chaining, EmptyInput)
{
    EXPECT_TRUE(chainSeeds({}).empty());
}

class MapperTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(41);
        reference_ = sim::randomSequence(30'000, rng);
        graph::BuildOptions options;
        options.maxNodeLen = 256;
        graph_ = graph::buildGraph(reference_, {}, options);
        index::IndexConfig config;
        config.sketch = {13, 8};
        config.bucketBits = 13;
        index_ = index::MinimizerIndex::build(graph_, config);
    }

    std::string reference_;
    graph::GenomeGraph graph_;
    index::MinimizerIndex index_;
};

TEST_F(MapperTest, GraphAlignerLikeMapsExactReads)
{
    BaselineConfig config;
    config.errorRate = 0.05;
    const GraphAlignerLike mapper(graph_, index_, config);
    Rng rng(43);
    int correct = 0;
    const int trials = 10;
    for (int trial = 0; trial < trials; ++trial) {
        const uint64_t start = rng.nextBelow(reference_.size() - 700);
        const std::string read = reference_.substr(start, 500);
        BaselineStats stats;
        const auto result = mapper.map(read, &stats);
        ASSERT_TRUE(result.mapped);
        EXPECT_EQ(result.editDistance, 0);
        EXPECT_GT(stats.rawSeeds, 0u);
        EXPECT_GE(stats.rawSeeds, stats.seedsExtended);
        correct += result.linearStart <= start + 8 &&
                   start <= result.linearStart + 8;
    }
    EXPECT_EQ(correct, trials);
}

TEST_F(MapperTest, VgLikeMapsExactReads)
{
    BaselineConfig config;
    config.errorRate = 0.05;
    const VgLike mapper(graph_, index_, config);
    Rng rng(47);
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start = rng.nextBelow(reference_.size() - 700);
        const std::string read = reference_.substr(start, 500);
        const auto result = mapper.map(read);
        ASSERT_TRUE(result.mapped);
        EXPECT_EQ(result.editDistance, 0);
    }
}

TEST_F(MapperTest, ChainingCollapsesSeedCount)
{
    // The Section 11.4 contrast: baselines extend far fewer candidates
    // than raw seed hits.
    BaselineConfig config;
    const GraphAlignerLike mapper(graph_, index_, config);
    Rng rng(53);
    BaselineStats stats;
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start = rng.nextBelow(reference_.size() - 1200);
        mapper.map(reference_.substr(start, 1000), &stats);
    }
    EXPECT_LT(stats.seedsExtended, stats.rawSeeds);
}

TEST(MapperConfig, Validation)
{
    Rng rng(1);
    const std::string reference = sim::randomSequence(2'000, rng);
    const auto graph = graph::buildGraph(reference, {});
    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    const auto index = index::MinimizerIndex::build(graph, index_config);
    BaselineConfig bad;
    bad.chain.maxChains = 0;
    EXPECT_THROW(GraphAlignerLike(graph, index, bad), InputError);
    BaselineConfig bad_chunk;
    bad_chunk.vgChunkLen = 1;
    EXPECT_THROW(VgLike(graph, index, bad_chunk), InputError);
}

/** Two nodes joined by a backwards edge, with an index over them. */
struct UnsortedFixture
{
    graph::GenomeGraph graph;
    index::MinimizerIndex index;
};

UnsortedFixture
unsortedFixture()
{
    graph::GraphBuilder builder;
    const auto a = builder.addNode("ACGTACGTACGTACGTACGT");
    const auto b = builder.addNode("TTTTACGTACGTACGTACGT");
    builder.addEdge(b, a);
    UnsortedFixture fixture;
    fixture.graph = std::move(builder).build();
    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    fixture.index =
        index::MinimizerIndex::build(fixture.graph, index_config);
    return fixture;
}

TEST(MapperConfig, GraphAlignerLikeRequiresSortedGraph)
{
    const auto fixture = unsortedFixture();
    EXPECT_THROW(GraphAlignerLike(fixture.graph, fixture.index),
                 InputError);
}

TEST(MapperConfig, VgLikeRequiresSortedGraph)
{
    const auto fixture = unsortedFixture();
    EXPECT_THROW(VgLike(fixture.graph, fixture.index), InputError);
}

} // namespace
} // namespace segram::baseline
