/**
 * @file
 * Tests for the three-level hash-table index (Fig. 6): query
 * correctness against a naive map, footprint accounting (Fig. 7
 * series), and the frequency threshold (top 0.02% discard rule).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
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
#include "src/util/thread_pool.h"

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

/**
 * @p count hits in location order, as the build collects them: spread
 * over many nodes, half drawn from two dozen hot hashes (heavy
 * duplicates), the rest uniform over the 2k-bit hash domain.
 */
std::vector<IndexHit>
adversarialHits(size_t count, int k, uint64_t seed)
{
    Rng rng(seed);
    const uint64_t mask = seed::SketchConfig{k, 1}.hashMask();
    std::vector<uint64_t> hot(24);
    for (uint64_t &hash : hot)
        hash = rng.nextU64() & mask;
    std::vector<IndexHit> hits;
    hits.reserve(count);
    graph::NodeId node = 0;
    uint32_t offset = 0;
    for (size_t i = 0; i < count; ++i) {
        if (rng.nextBelow(4) == 0) {
            ++node;
            offset = 0;
        }
        offset += 1 + static_cast<uint32_t>(rng.nextBelow(8));
        const uint64_t hash = rng.nextBelow(2) == 0
                                  ? hot[rng.nextBelow(hot.size())]
                                  : rng.nextU64() & mask;
        hits.push_back({hash, node, offset});
    }
    return hits;
}

TEST(SortHits, RadixOrderEqualsTheComparatorOrder)
{
    // The order the build used before its radix sort: a comparison
    // sort on (bucket, hash, location).
    util::ThreadPool pool(3);
    for (const int k : {5, 15, 31}) {
        for (const int bucket_bits : {1, 16, 32}) {
            SCOPED_TRACE("k " + std::to_string(k) + ", bucketBits " +
                         std::to_string(bucket_bits));
            IndexConfig config;
            config.sketch.k = k;
            config.bucketBits = bucket_bits;
            const auto hits = adversarialHits(
                100'000, k, static_cast<uint64_t>(k * 64 + bucket_bits));
            const uint64_t bucket_mask =
                (uint64_t{1} << bucket_bits) - 1;
            auto expect = hits;
            std::sort(expect.begin(), expect.end(),
                      [&](const IndexHit &a, const IndexHit &b) {
                          const uint64_t bucket_a = a.hash & bucket_mask;
                          const uint64_t bucket_b = b.hash & bucket_mask;
                          if (bucket_a != bucket_b)
                              return bucket_a < bucket_b;
                          if (a.hash != b.hash)
                              return a.hash < b.hash;
                          return SeedLocation{a.node, a.offset} <
                                 SeedLocation{b.node, b.offset};
                      });
            for (util::ThreadPool *on : {(util::ThreadPool *)nullptr,
                                         &pool}) {
                SCOPED_TRACE(on == nullptr ? "serial" : "pooled");
                auto work = hits;
                std::vector<IndexHit> scratch(work.size());
                const auto sorted = sortHits(work, scratch, config, on);
                EXPECT_TRUE(std::ranges::equal(sorted, expect));
            }
        }
    }
}

/** The bytes of a one-chromosome pack of @p graph and @p index. */
std::string
packBytes(const graph::GenomeGraph &graph, MinimizerIndex index)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("segram_index_pool_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string pack = (dir / "ref.segram").string();
    {
        std::vector<core::PreprocessedChromosome> chromosomes;
        chromosomes.push_back({"chr1", graph::GenomeGraph(graph),
                               std::move(index)});
        core::PreprocessedReference(std::move(chromosomes)).save(pack);
    }
    std::ifstream in(pack, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::filesystem::remove_all(dir);
    return bytes;
}

TEST(MinimizerIndex, BuildIsIdenticalAtEveryPoolSize)
{
    // 40 bp nodes spread the hits over ~10,000 nodes; k = 5 makes heavy
    // duplicate hashes and a bucket count past the 2k-bit domain.
    const auto graph = randomGraph(400'000, 9, 40);
    IndexConfig small_k;
    small_k.sketch = {5, 4};
    small_k.bucketBits = 16;
    small_k.discardTopFraction = 0.05;
    for (const IndexConfig &config : {IndexConfig{}, small_k}) {
        SCOPED_TRACE("k " + std::to_string(config.sketch.k) +
                     ", bucketBits " + std::to_string(config.bucketBits));
        const auto expect = MinimizerIndex::build(graph, config);
        ASSERT_GT(expect.stats().numLocations,
                  2 * util::BlockSplit::kMinBlock);
        const std::string expect_pack = packBytes(graph, expect);
        for (const int workers : {1, 2, 3, 4, 8}) {
            SCOPED_TRACE("workers " + std::to_string(workers));
            util::ThreadPool pool(workers);
            IndexBuildTimes times;
            const auto got =
                MinimizerIndex::build(graph, config, &pool, &times);
            EXPECT_EQ(got.frequencyThreshold(), expect.frequencyThreshold());
            const IndexStats &a = got.stats();
            const IndexStats &b = expect.stats();
            EXPECT_EQ(a.numDistinctMinimizers, b.numDistinctMinimizers);
            EXPECT_EQ(a.numLocations, b.numLocations);
            EXPECT_EQ(a.maxMinimizersPerBucket, b.maxMinimizersPerBucket);
            EXPECT_EQ(a.maxLocationsPerMinimizer,
                      b.maxLocationsPerMinimizer);
            EXPECT_EQ(a.totalBytes(), b.totalBytes());
            EXPECT_TRUE(packBytes(graph, got) == expect_pack)
                << "level tables differ";
            EXPECT_GE(times.hitsSec, 0.0);
        }
    }
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
