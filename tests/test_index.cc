/**
 * @file
 * Tests for the three-level hash-table index (Fig. 6): query
 * correctness against a naive map, footprint accounting (Fig. 7
 * series), and the frequency threshold (top 0.02% discard rule).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/reference.h"
#include "src/graph/graph_builder.h"
#include "src/index/minimizer_index.h"
#include "src/seed/minimizer.h"
#include "src/sim/genome_sim.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::index
{
namespace
{

graph::GenomeGraph
randomGraph(uint64_t len, uint64_t seed, uint32_t max_node_len = 200)
{
    Rng rng(seed);
    const std::string reference = sim::randomSequence(len, rng);
    graph::BuildOptions options;
    options.maxNodeLen = max_node_len;
    return graph::buildGraph(reference, {}, options);
}

/** Naive reference index: every node k-mer minimizer into a multimap. */
std::map<uint64_t, std::vector<SeedLocation>>
naiveIndex(const graph::GenomeGraph &graph,
           const seed::SketchConfig &sketch)
{
    std::map<uint64_t, std::vector<SeedLocation>> naive;
    for (graph::NodeId id = 0; id < graph.numNodes(); ++id) {
        for (const auto &m :
             seed::computeMinimizers(graph.nodeSeq(id), sketch)) {
            naive[m.hash].push_back({id, m.pos});
        }
    }
    return naive;
}

TEST(MinimizerIndex, MatchesNaiveIndex)
{
    const auto graph = randomGraph(20'000, 1);
    IndexConfig config;
    config.sketch = {11, 5};
    config.bucketBits = 10;
    const auto index = MinimizerIndex::build(graph, config);
    const auto naive = naiveIndex(graph, config.sketch);

    uint64_t total_locations = 0;
    for (const auto &[hash, locations] : naive) {
        const auto span = index.locations(hash);
        ASSERT_EQ(span.size(), locations.size());
        // Index stores locations sorted; compare as sets.
        std::vector<SeedLocation> sorted = locations;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i)
            EXPECT_EQ(span[i], sorted[i]);
        total_locations += locations.size();
    }
    EXPECT_EQ(index.stats().numDistinctMinimizers, naive.size());
    EXPECT_EQ(index.stats().numLocations, total_locations);
}

/**
 * Checks that one lookup() call over @p hashes returns, for every hash,
 * the very span locations() returns (same table memory, same length).
 */
void
expectLookupMatchesLocations(const MinimizerIndex &index,
                             const std::vector<uint64_t> &hashes)
{
    std::vector<seed::Minimizer> minimizers;
    for (size_t i = 0; i < hashes.size(); ++i)
        minimizers.push_back({hashes[i], static_cast<uint32_t>(i)});
    std::vector<std::span<const SeedLocation>> spans(minimizers.size());
    index.lookup(minimizers, spans);
    for (size_t i = 0; i < hashes.size(); ++i) {
        const auto want = index.locations(hashes[i]);
        ASSERT_EQ(spans[i].size(), want.size()) << "hash " << hashes[i];
        if (!want.empty()) {
            EXPECT_EQ(spans[i].data(), want.data()) << "hash " << hashes[i];
        }
    }
}

TEST(MinimizerIndex, BatchedLookupMatchesLocations)
{
    // The MatchesNaiveIndex index: every present hash, each followed by
    // an absent one (outside the 2k-bit domain), so present and absent
    // searches share the prefetched groups.
    const auto graph = randomGraph(20'000, 1);
    IndexConfig config;
    config.sketch = {11, 5};
    config.bucketBits = 10;
    auto index = MinimizerIndex::build(graph, config);
    std::vector<uint64_t> hashes;
    for (const auto &[hash, locations] : naiveIndex(graph, config.sketch)) {
        hashes.push_back(hash);
        hashes.push_back(hash | (uint64_t{1} << 40));
    }
    ASSERT_GT(hashes.size(), 4 * MinimizerIndex::kLookupGroup);
    expectLookupMatchesLocations(index, hashes);

    // An empty input touches no output entry.
    std::vector<std::span<const SeedLocation>> untouched(
        1, index.locations(hashes.front()));
    index.lookup({}, untouched);
    EXPECT_EQ(untouched.front().data(),
              index.locations(hashes.front()).data());

    // The same searches through mmap'd tables of a pack.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("segram_index_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string pack = (dir / "ref.segram").string();
    {
        std::vector<core::PreprocessedChromosome> chromosomes;
        chromosomes.push_back({"chr1", graph::GenomeGraph(graph),
                               std::move(index)});
        core::PreprocessedReference(std::move(chromosomes)).save(pack);
    }
    const auto loaded = core::PreprocessedReference::load(pack);
    ASSERT_TRUE(loaded.fromPack());
    const auto &loaded_index = loaded.index(0);
    expectLookupMatchesLocations(loaded_index, hashes);
    const auto built = MinimizerIndex::build(graph, config);
    for (const uint64_t hash : hashes) {
        EXPECT_TRUE(std::ranges::equal(loaded_index.locations(hash),
                                       built.locations(hash)))
            << "hash " << hash;
    }
    std::filesystem::remove_all(dir);
}

TEST(MinimizerIndex, AbsentMinimizerHasZeroFrequency)
{
    const auto graph = randomGraph(5'000, 2);
    IndexConfig config;
    config.sketch = {15, 10};
    config.bucketBits = 8;
    const auto index = MinimizerIndex::build(graph, config);
    // A hash outside the 2k-bit domain cannot be present.
    const uint64_t absent = ~uint64_t{0};
    EXPECT_TRUE(index.locations(absent).empty());
}

TEST(MinimizerIndex, FootprintFollowsFig6ByteWidths)
{
    const auto graph = randomGraph(10'000, 3);
    IndexConfig config;
    config.sketch = {13, 8};
    config.bucketBits = 12;
    const auto stats = MinimizerIndex::build(graph, config).stats();
    EXPECT_EQ(stats.firstLevelBytes, (uint64_t{1} << 12) * 4);
    EXPECT_EQ(stats.secondLevelBytes, stats.numDistinctMinimizers * 12);
    EXPECT_EQ(stats.thirdLevelBytes, stats.numLocations * 8);
    EXPECT_EQ(stats.totalBytes(), stats.firstLevelBytes +
                                      stats.secondLevelBytes +
                                      stats.thirdLevelBytes);
}

TEST(MinimizerIndex, Fig7TradeoffMonotonicity)
{
    // Fewer buckets -> smaller level 1 but more minimizers per bucket;
    // levels 2/3 are invariant. This is the Fig. 7 shape.
    const auto graph = randomGraph(30'000, 4);
    IndexConfig config;
    config.sketch = {13, 8};
    IndexStats prev_stats;
    uint64_t prev_max = 0;
    bool first = true;
    for (const int bits : {6, 8, 10, 12, 14}) {
        config.bucketBits = bits;
        const auto stats = statsForBucketBits(graph, config);
        if (!first) {
            EXPECT_GT(stats.firstLevelBytes, prev_stats.firstLevelBytes);
            EXPECT_LE(stats.maxMinimizersPerBucket, prev_max);
            EXPECT_EQ(stats.secondLevelBytes, prev_stats.secondLevelBytes);
            EXPECT_EQ(stats.thirdLevelBytes, prev_stats.thirdLevelBytes);
        }
        prev_stats = stats;
        prev_max = stats.maxMinimizersPerBucket;
        first = false;
    }
}

TEST(MinimizerIndex, FrequencyThresholdDiscardsTopFraction)
{
    // Plant a heavy repeat so some minimizers are very frequent.
    Rng rng(5);
    sim::GenomeConfig genome_config;
    genome_config.length = 50'000;
    genome_config.repeatFraction = 0.2;
    genome_config.repeatMotifLen = 300;
    genome_config.repeatMotifCount = 2;
    const std::string reference = sim::simulateGenome(genome_config, rng);
    graph::BuildOptions options;
    options.maxNodeLen = 500;
    const auto graph = graph::buildGraph(reference, {}, options);

    IndexConfig config;
    config.sketch = {13, 8};
    config.bucketBits = 12;
    config.discardTopFraction = 0.01; // exaggerate for a small genome
    const auto index = MinimizerIndex::build(graph, config);
    const uint32_t threshold = index.frequencyThreshold();
    EXPECT_GE(threshold, 1u);
    // At most 1% of distinct minimizers may exceed the threshold.
    const auto naive = naiveIndex(graph, config.sketch);
    uint64_t above = 0;
    for (const auto &[hash, locations] : naive) {
        if (locations.size() > threshold)
            ++above;
    }
    EXPECT_LE(above, naive.size() / 100 + 1);
}

TEST(MinimizerIndex, RejectsBadConfig)
{
    const auto graph = randomGraph(1'000, 6);
    IndexConfig config;
    config.bucketBits = 0;
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
    config.bucketBits = 33;
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
    config.bucketBits = 8;
    config.discardTopFraction = 1.5;
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
}

} // namespace
} // namespace segram::index
