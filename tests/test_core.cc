/**
 * @file
 * Tests for the SegramMapper pipeline API: configuration validation,
 * mapping behaviour on linear and graph references, early exit and
 * region capping, and CIGAR consistency; plus the product config and
 * the result -> PAF formatter.
 */

#include <gtest/gtest.h>

#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/graph/graph_builder.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/rng.h"

namespace segram::core
{
namespace
{

sim::DatasetConfig
smallConfig(uint64_t seed)
{
    sim::DatasetConfig config;
    config.genome.length = 40'000;
    config.genome.repeatFraction = 0.0;
    config.index.sketch = {13, 8};
    config.index.bucketBits = 13;
    config.seed = seed;
    return config;
}

TEST(SegramMapper, MapsExactBackboneReads)
{
    const auto dataset = sim::makeDataset(smallConfig(61));
    SegramConfig config;
    config.minseed.errorRate = 0.05;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    Rng rng(62);
    for (int trial = 0; trial < 10; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        const std::string read = dataset.donor.seq().substr(start, 300);
        PipelineStats stats;
        const auto result = mapper.mapRead(read, &stats);
        ASSERT_TRUE(result.mapped) << "trial " << trial;
        EXPECT_EQ(result.editDistance, 0) << "trial " << trial;
        EXPECT_EQ(result.cigar.readLength(), read.size());
        EXPECT_GT(stats.regionsAligned, 0u);
        // Position: within a small tolerance of the truth.
        const uint64_t truth = dataset.donor.toLinear(start);
        const uint64_t delta = result.linearStart > truth
                                   ? result.linearStart - truth
                                   : truth - result.linearStart;
        EXPECT_LE(delta, 16u) << "trial " << trial;
    }
}

TEST(SegramMapper, EmptyReadRejected)
{
    const auto dataset = sim::makeDataset(smallConfig(63));
    const SegramMapper mapper(dataset.graph, dataset.index);
    EXPECT_THROW(mapper.mapRead(""), InputError);
}

TEST(SegramMapper, UnrelatedReadDoesNotMap)
{
    const auto dataset = sim::makeDataset(smallConfig(64));
    const SegramMapper mapper(dataset.graph, dataset.index);
    // A random read shares no (w+k-1)-exact stretch with the genome,
    // with overwhelming probability, so seeding finds nothing.
    Rng rng(65);
    std::string read;
    for (int i = 0; i < 200; ++i)
        read.push_back(rng.nextBase());
    PipelineStats stats;
    const auto result = mapper.mapRead(read, &stats);
    EXPECT_FALSE(result.mapped);
    EXPECT_EQ(stats.readsMapped, 0u);
}

TEST(SegramMapper, MaxRegionsCapsWork)
{
    const auto dataset = sim::makeDataset(smallConfig(66));
    SegramConfig capped;
    capped.maxRegions = 1;
    const SegramMapper mapper(dataset.graph, dataset.index, capped);
    const std::string read = dataset.donor.seq().substr(1'000, 300);
    const auto result = mapper.mapRead(read);
    EXPECT_LE(result.regionsTried, 1u);
}

TEST(SegramMapper, EarlyExitStopsEarly)
{
    const auto dataset = sim::makeDataset(smallConfig(67));
    SegramConfig eager;
    eager.earlyExitFraction = 1.0;
    const SegramMapper eager_mapper(dataset.graph, dataset.index, eager);
    SegramConfig exhaustive;
    const SegramMapper full_mapper(dataset.graph, dataset.index,
                                   exhaustive);
    const std::string read = dataset.donor.seq().substr(5'000, 300);
    const auto eager_result = eager_mapper.mapRead(read);
    const auto full_result = full_mapper.mapRead(read);
    ASSERT_TRUE(eager_result.mapped);
    ASSERT_TRUE(full_result.mapped);
    EXPECT_LE(eager_result.regionsTried, full_result.regionsTried);
    EXPECT_EQ(eager_result.editDistance, full_result.editDistance);
}

TEST(SegramMapper, S2SModeOnLinearGraph)
{
    // The universality claim: the same pipeline maps against a chain
    // graph (sequence-to-sequence mapping).
    auto config = smallConfig(68);
    const auto dataset = sim::makeLinearDataset(config);
    const SegramMapper mapper(dataset.graph, dataset.index);
    Rng rng(69);
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.reference.size() - 400);
        const std::string read = dataset.reference.substr(start, 300);
        const auto result = mapper.mapRead(read);
        ASSERT_TRUE(result.mapped);
        EXPECT_EQ(result.editDistance, 0);
        EXPECT_EQ(result.linearStart, start);
    }
}

TEST(SegramMapper, AltAlleleReadsAlignBetterOnGraph)
{
    // Reads carrying variants: the graph mapper finds fewer edits than
    // a linear mapping of the same reads would (reference bias).
    auto dataset_config = smallConfig(70);
    dataset_config.variants.meanSpacing = 150.0;
    const auto dataset = sim::makeDataset(dataset_config);
    const SegramMapper graph_mapper(dataset.graph, dataset.index);

    const auto linear = sim::makeLinearDataset(smallConfig(70));
    const SegramMapper linear_mapper(linear.graph, linear.index);

    Rng rng(71);
    uint64_t graph_edits = 0;
    uint64_t linear_edits = 0;
    int mapped_both = 0;
    for (int trial = 0; trial < 12; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        const std::string read = dataset.donor.seq().substr(start, 300);
        const auto on_graph = graph_mapper.mapRead(read);
        const auto on_linear = linear_mapper.mapRead(read);
        if (on_graph.mapped && on_linear.mapped) {
            ++mapped_both;
            graph_edits += on_graph.editDistance;
            linear_edits += on_linear.editDistance;
        }
    }
    ASSERT_GT(mapped_both, 5);
    EXPECT_LT(graph_edits, linear_edits);
}

TEST(SegramMapper, ReverseComplementMapping)
{
    const auto dataset = sim::makeDataset(smallConfig(72));
    SegramConfig config;
    config.tryReverseComplement = true;
    config.earlyExitFraction = 1.0;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    Rng rng(73);
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        const std::string fwd = dataset.donor.seq().substr(start, 300);
        const std::string rc = reverseComplement(fwd);

        const auto fwd_result = mapper.mapRead(fwd);
        const auto rc_result = mapper.mapRead(rc);
        ASSERT_TRUE(fwd_result.mapped);
        ASSERT_TRUE(rc_result.mapped);
        EXPECT_FALSE(fwd_result.reverseComplemented);
        EXPECT_TRUE(rc_result.reverseComplemented);
        EXPECT_EQ(fwd_result.editDistance, 0);
        EXPECT_EQ(rc_result.editDistance, 0);
        EXPECT_EQ(fwd_result.linearStart, rc_result.linearStart);
    }
    // Without the flag, reverse-complement reads do not map.
    SegramConfig fwd_only;
    const SegramMapper strict(dataset.graph, dataset.index, fwd_only);
    const std::string rc = reverseComplement(
        dataset.donor.seq().substr(9'000, 300));
    EXPECT_FALSE(strict.mapRead(rc).mapped);
}

TEST(SegramMapper, ChainFilterKeepsAccuracyWithFewerRegions)
{
    const auto dataset = sim::makeDataset(smallConfig(74));
    SegramConfig plain;
    SegramConfig filtered = plain;
    filtered.enableChainFilter = true;
    filtered.chain.maxChains = 3;
    const SegramMapper plain_mapper(dataset.graph, dataset.index, plain);
    const SegramMapper filtered_mapper(dataset.graph, dataset.index,
                                       filtered);
    Rng rng(75);
    for (int trial = 0; trial < 6; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 700);
        const std::string read = dataset.donor.seq().substr(start, 500);
        PipelineStats plain_stats;
        PipelineStats filtered_stats;
        const auto a = plain_mapper.mapRead(read, &plain_stats);
        const auto b = filtered_mapper.mapRead(read, &filtered_stats);
        ASSERT_TRUE(a.mapped);
        ASSERT_TRUE(b.mapped);
        EXPECT_EQ(a.editDistance, 0);
        EXPECT_EQ(b.editDistance, 0);
        EXPECT_LE(filtered_stats.regionsAligned,
                  plain_stats.regionsAligned);
    }
}

TEST(SegramMapper, RequiresSortedGraph)
{
    graph::GraphBuilder builder;
    const auto a = builder.addNode("ACGTACGTACGTACGTACGT");
    const auto b = builder.addNode("TTTTACGTACGTACGTACGT");
    builder.addEdge(b, a); // backwards edge: not topologically sorted
    const auto bad_graph = std::move(builder).build();
    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    const auto index =
        index::MinimizerIndex::build(bad_graph, index_config);
    EXPECT_THROW(SegramMapper(bad_graph, index), InputError);
}

TEST(SegramConfig, ProductDerivesFromTheErrorRate)
{
    const SegramConfig config = SegramConfig::product(0.10);
    EXPECT_EQ(config.minseed.errorRate, 0.10);
    // Three times a 128-char window's expected edits: 38.4 -> 38.
    EXPECT_EQ(config.bitalign.windowEditCap, 38);
    EXPECT_EQ(config.earlyExitFraction, 1.5);
    EXPECT_TRUE(config.tryReverseComplement);
    // Low error rates keep the hardware's k = 32.
    EXPECT_EQ(SegramConfig::product(0.05).bitalign.windowEditCap, 32);
    EXPECT_EQ(SegramConfig::product().minseed.errorRate,
              seed::MinSeedConfig().errorRate);
}

/**
 * One bubble: AAAA | CCCCCC | T (ALT for the Cs) | GGGG at concatenated
 * offsets 0, 4, 10, 11; the ALT node's path position is 4, where the
 * bubble diverges, and the path is 14 bp long.
 */
PreprocessedReference
bubbleReference()
{
    auto graph = graph::buildGraph("AAAACCCCCCGGGG", {{4, "CCCCCC", "T"}});
    index::IndexConfig index_config;
    index_config.sketch = {5, 3};
    index_config.bucketBits = 4;
    auto index = index::MinimizerIndex::build(graph, index_config);
    std::vector<PreprocessedChromosome> chromosomes;
    chromosomes.push_back({"chrB", std::move(graph), std::move(index)});
    return PreprocessedReference(std::move(chromosomes));
}

MultiMapResult
mappedAt(uint64_t linear_start, const char *cigar)
{
    MultiMapResult result;
    result.mapped = true;
    result.linearStart = linear_start;
    result.cigar = Cigar::fromString(cigar);
    result.chromosome = "chrB";
    return result;
}

TEST(PafFormatter, ConcatenatedEqualsMakePafRecord)
{
    const auto reference = bubbleReference();
    const PafFormatter formatter(reference);
    MultiMapResult result = mappedAt(2, "3=1X2=");
    result.reverseComplemented = true;
    std::string expected;
    io::formatPaf(expected, io::makePafRecord("r", 6, '-', "chrB", 15, 2,
                                              result.cigar));
    std::string out;
    EXPECT_TRUE(formatter.format(out, "r", 6, result));
    EXPECT_EQ(out, expected);
    // Unmapped reads emit nothing.
    result.mapped = false;
    EXPECT_FALSE(formatter.record("r", 6, result).has_value());
    EXPECT_FALSE(formatter.format(out, "r", 6, result));
    EXPECT_EQ(out, expected);
}

TEST(PafFormatter, PathCoordsProjectClampAndKeepZeroSpans)
{
    const auto reference = bubbleReference();
    ASSERT_TRUE(reference.graph(0).node(2).isAlt);
    ASSERT_EQ(reference.graph(0).node(2).linearOffset, 10u);
    const PafFormatter formatter(reference, PafCoords::kPath);
    const auto span = [&](uint64_t linear_start, const char *cigar) {
        const io::PafRecord record =
            formatter.record("r", 6, mappedAt(linear_start, cigar)).value();
        EXPECT_EQ(record.targetLen, 14u);
        return std::pair(record.targetStart, record.targetEnd);
    };
    using Span = std::pair<uint64_t, uint64_t>;
    EXPECT_EQ(span(2, "6="), Span(2, 8));   // on-path bases map exactly
    EXPECT_EQ(span(10, "2="), Span(4, 11)); // T projects to 4, G to 10
    // C C G from offset 8 hops over the ALT node, yet 8 + 3 - 1 = 10 is
    // the ALT node's offset, which projects behind the start: the end
    // is clamped to the start, never inverted.
    EXPECT_EQ(span(8, "3="), Span(8, 8));
    // A zero reference span ends where it starts; projecting the
    // base before the start (path 9) would end it past the start.
    EXPECT_EQ(span(10, "5I"), Span(4, 4));
}

} // namespace
} // namespace segram::core
