/**
 * @file
 * Tests for the SegramMapper pipeline API: configuration validation,
 * mapping behaviour on linear and graph references, early exit and
 * region capping, and CIGAR consistency.
 */

#include <gtest/gtest.h>

#include "src/core/segram.h"
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
    filtered.maxChains = 3;
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

} // namespace
} // namespace segram::core
