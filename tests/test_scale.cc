/**
 * @file
 * Tests for the human-scale reference features: the query-time
 * occurrence cap (edge cases and thread-count determinism of the
 * stratified subsample), the work-stealing sharded batch mapper
 * (bit-identical to a per-read mapRead oracle at every thread
 * count), the shard residency LRU under a memory budget, legacy v1
 * pack loading, the work-stealing scheduler itself, and the
 * multi-chromosome / tandem-repeat simulator growth.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/io/pack.h"
#include "src/seed/minseed.h"
#include "src/sim/dataset.h"
#include "src/sim/genome_sim.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace
{

using namespace segram;

/** A repeat-heavy dataset: the occurrence cap must have lists to cap. */
sim::DatasetConfig
repeatConfig(uint64_t seed)
{
    sim::DatasetConfig config;
    config.genome.length = 40'000;
    config.genome.repeatFraction = 0.15;
    config.genome.repeatMotifLen = 120;
    config.genome.repeatMotifCount = 2;
    config.index.bucketBits = 12;
    config.index.discardTopFraction = 0.0; // keep the hot lists
    config.seed = seed;
    return config;
}

std::vector<std::string>
donorReads(const sim::Dataset &dataset, size_t count, uint64_t seed)
{
    std::vector<std::string> reads;
    Rng rng(seed);
    for (size_t i = 0; i < count; ++i) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        reads.push_back(dataset.donor.seq().substr(start, 300));
    }
    return reads;
}

std::vector<std::string_view>
viewsOf(const std::vector<std::string> &reads)
{
    return {reads.begin(), reads.end()};
}

void
expectSameResults(const std::vector<core::MultiMapResult> &lhs,
                  const std::vector<core::MultiMapResult> &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].mapped, rhs[i].mapped) << "read " << i;
        EXPECT_EQ(lhs[i].linearStart, rhs[i].linearStart) << "read " << i;
        EXPECT_EQ(lhs[i].editDistance, rhs[i].editDistance)
            << "read " << i;
        EXPECT_EQ(lhs[i].reverseComplemented, rhs[i].reverseComplemented)
            << "read " << i;
        EXPECT_EQ(lhs[i].chromosome, rhs[i].chromosome) << "read " << i;
        EXPECT_EQ(lhs[i].cigar.toString(), rhs[i].cigar.toString())
            << "read " << i;
    }
}

// ---------------------------------------------------------------------
// Occurrence cap
// ---------------------------------------------------------------------

TEST(OccurrenceCap, ZeroAndHugeCapsMatchUncapped)
{
    const auto dataset = sim::makeDataset(repeatConfig(301));
    seed::MinSeedConfig uncapped;
    const seed::MinSeed baseline(dataset.graph, dataset.index, uncapped);

    seed::MinSeedConfig zero = uncapped;
    zero.maxOccurrences = 0; // documented: 0 disables the cap
    const seed::MinSeed zero_cap(dataset.graph, dataset.index, zero);

    // A cap no list can exceed must subsample nothing.
    seed::MinSeedConfig huge = uncapped;
    huge.maxOccurrences = 1u << 30;
    const seed::MinSeed huge_cap(dataset.graph, dataset.index, huge);

    const auto reads = donorReads(dataset, 20, 302);
    for (const auto &read : reads) {
        seed::MinSeedStats base_stats;
        seed::MinSeedStats zero_stats;
        seed::MinSeedStats huge_stats;
        const auto expected = baseline.seedRead(read, &base_stats);
        EXPECT_EQ(zero_cap.seedRead(read, &zero_stats), expected);
        EXPECT_EQ(huge_cap.seedRead(read, &huge_stats), expected);
        EXPECT_EQ(zero_stats.minimizersCapped, 0u);
        EXPECT_EQ(huge_stats.minimizersCapped, 0u);
        EXPECT_EQ(zero_stats.seedsSkippedByCap, 0u);
        EXPECT_EQ(huge_stats.seedsSkippedByCap, 0u);
    }
}

TEST(OccurrenceCap, SubsampleIsDeterministicAndBounded)
{
    const auto dataset = sim::makeDataset(repeatConfig(303));
    seed::MinSeedConfig capped_config;
    capped_config.maxOccurrences = 4;
    capped_config.mergeDuplicateRegions = false; // count raw emissions
    const seed::MinSeed capped(dataset.graph, dataset.index,
                               capped_config);
    seed::MinSeedConfig uncapped_config = capped_config;
    uncapped_config.maxOccurrences = 0;
    const seed::MinSeed uncapped(dataset.graph, dataset.index,
                                 uncapped_config);

    bool saw_capped_minimizer = false;
    for (const auto &read : donorReads(dataset, 20, 304)) {
        seed::MinSeedStats stats;
        const auto first = capped.seedRead(read, &stats);
        // Pure function of (read, index, cap): repeated calls agree.
        EXPECT_EQ(capped.seedRead(read), first);
        saw_capped_minimizer |= stats.minimizersCapped > 0;
        if (stats.minimizersCapped > 0) {
            EXPECT_GT(stats.seedsSkippedByCap, 0u);
        }

        // Every capped emission is a real occurrence: a subset of the
        // uncapped region set (same read, same merge settings).
        const auto full = uncapped.seedRead(read);
        const std::set<std::pair<uint64_t, uint64_t>> full_spans = [&] {
            std::set<std::pair<uint64_t, uint64_t>> spans;
            for (const auto &region : full)
                spans.insert({region.start, region.end});
            return spans;
        }();
        EXPECT_LE(first.size(), full.size());
        for (const auto &region : first)
            EXPECT_TRUE(full_spans.count({region.start, region.end}))
                << "capped region is not an uncapped occurrence";
    }
    // The dataset is repeat-heavy enough that a cap of 4 must trigger.
    EXPECT_TRUE(saw_capped_minimizer);
}

// ---------------------------------------------------------------------
// Sharded mapper vs a per-read oracle, across thread counts
// ---------------------------------------------------------------------

/** Builds a 3-chromosome reference plus a mixed read batch. */
struct ShardedFixture
{
    std::vector<sim::Dataset> datasets;
    core::PreprocessedReference reference;
    std::vector<std::string> reads;

    explicit ShardedFixture(uint32_t max_occ)
    {
        std::vector<core::PreprocessedChromosome> chromosomes;
        for (uint64_t c = 0; c < 3; ++c) {
            datasets.push_back(sim::makeDataset(repeatConfig(310 + c)));
            const auto &dataset = datasets.back();
            chromosomes.push_back({"chr" + std::to_string(c + 1),
                                   dataset.graph, dataset.index});
        }
        reference =
            core::PreprocessedReference(std::move(chromosomes));
        Rng rng(315);
        for (int i = 0; i < 24; ++i) {
            const auto &donor = datasets[i % 3].donor;
            const uint64_t start =
                rng.nextBelow(donor.seq().size() - 400);
            reads.push_back(donor.seq().substr(start, 300));
        }
        config.minseed.maxOccurrences = max_occ;
        config.earlyExitFraction = 1.0;
    }

    core::SegramConfig config;
};

TEST(ShardedBatchMapper, MatchesMonolithicAtEveryThreadCount)
{
    ShardedFixture fixture(0);
    const auto views = viewsOf(fixture.reads);

    // The oracle: a per-read mapRead loop over the chromosomes, merged
    // by the documented rule (lowest edit distance wins, ties to the
    // earlier chromosome), with one readsTotal per logical read.
    std::vector<core::SegramMapper> mappers;
    for (size_t c = 0; c < fixture.reference.numChromosomes(); ++c)
        mappers.emplace_back(fixture.reference, c, fixture.config);
    std::vector<core::MultiMapResult> expected(fixture.reads.size());
    core::PipelineStats expected_stats;
    for (size_t i = 0; i < fixture.reads.size(); ++i) {
        for (size_t c = 0; c < mappers.size(); ++c) {
            const core::MapResult result =
                mappers[c].mapRead(fixture.reads[i], &expected_stats);
            if (result.mapped &&
                (!expected[i].mapped ||
                 result.editDistance < expected[i].editDistance)) {
                static_cast<core::MapResult &>(expected[i]) = result;
                expected[i].chromosome = fixture.reference.name(c);
            }
        }
    }
    expected_stats.readsTotal = fixture.reads.size();
    expected_stats.readsMapped = static_cast<uint64_t>(
        std::count_if(expected.begin(), expected.end(),
                      [](const auto &result) { return result.mapped; }));

    for (const int threads : {1, 2, 4, 8}) {
        core::ShardedBatchConfig batch_config;
        batch_config.threads = threads;
        batch_config.chunkSize = 5; // uneven chunks on 24 reads
        const core::ShardedBatchMapper sharded(
            fixture.reference, fixture.config, batch_config);
        core::PipelineStats stats;
        const auto results = sharded.mapBatch(
            std::span<const std::string_view>(views), &stats);
        expectSameResults(results, expected);
        EXPECT_EQ(stats.readsTotal, expected_stats.readsTotal)
            << threads << " threads";
        EXPECT_EQ(stats.readsMapped, expected_stats.readsMapped)
            << threads << " threads";
        EXPECT_EQ(stats.regionsAligned, expected_stats.regionsAligned)
            << threads << " threads";
        EXPECT_EQ(stats.alignmentsFound, expected_stats.alignmentsFound)
            << threads << " threads";
        EXPECT_EQ(stats.seeding.seedsFetched,
                  expected_stats.seeding.seedsFetched)
            << threads << " threads";
    }
}

TEST(ShardedBatchMapper, CappedSeedingIsThreadCountInvariant)
{
    ShardedFixture fixture(3); // aggressive cap: subsampling everywhere
    const auto views = viewsOf(fixture.reads);

    std::vector<core::MultiMapResult> expected;
    for (const int threads : {1, 2, 4, 8}) {
        core::ShardedBatchConfig batch_config;
        batch_config.threads = threads;
        batch_config.chunkSize = 7;
        const core::ShardedBatchMapper sharded(
            fixture.reference, fixture.config, batch_config);
        core::PipelineStats stats;
        auto results = sharded.mapBatch(
            std::span<const std::string_view>(views), &stats);
        // Not vacuous: the aggressive cap must actually subsample.
        EXPECT_GT(stats.seeding.minimizersCapped, 0u)
            << threads << " threads";
        if (expected.empty())
            expected = std::move(results);
        else
            expectSameResults(results, expected);
    }
}

// ---------------------------------------------------------------------
// Packs: v1 back-compat and the memory budget
// ---------------------------------------------------------------------

/** Temp pack path unique to this test process. */
std::string
tempPackPath(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            ("test_scale_" + std::string(tag) + "_" +
             std::to_string(getpid()) + ".segram"))
        .string();
}

TEST(PackBackCompat, Version1PackLoadsAndMapsIdentically)
{
    ShardedFixture fixture(0);
    const auto views = viewsOf(fixture.reads);
    const core::ShardedBatchMapper fresh(fixture.reference,
                                         fixture.config, {});
    const auto expected =
        fresh.mapBatch(std::span<const std::string_view>(views));

    // Write the legacy layout explicitly: no ShardTable section.
    std::vector<io::PackWriteEntry> entries;
    for (size_t c = 0; c < fixture.reference.numChromosomes(); ++c)
        entries.push_back({fixture.reference.name(c),
                           &fixture.reference.graph(c),
                           &fixture.reference.index(c)});
    const std::string path = tempPackPath("v1");
    io::writePack(path, entries, 1);

    const auto loaded = core::PreprocessedReference::load(path);
    ASSERT_EQ(loaded.numChromosomes(),
              fixture.reference.numChromosomes());
    // Shard extents are derived from the section directory even
    // without a ShardTable, so v1 packs get residency control too.
    for (size_t c = 0; c < loaded.numChromosomes(); ++c)
        EXPECT_GT(loaded.shardBytes(c), 0u) << "chr " << c;

    const core::ShardedBatchMapper mapper(loaded, fixture.config, {});
    expectSameResults(
        mapper.mapBatch(std::span<const std::string_view>(views)),
        expected);
    std::filesystem::remove(path);
}

TEST(ShardResidency, BudgetedMappingMatchesUnbudgetedAndEvicts)
{
    ShardedFixture fixture(0);
    const auto views = viewsOf(fixture.reads);
    const std::string path = tempPackPath("budget");
    fixture.reference.save(path);

    const auto warm = core::PreprocessedReference::load(path);
    const core::ShardedBatchMapper unbudgeted(warm, fixture.config, {});
    const auto expected =
        unbudgeted.mapBatch(std::span<const std::string_view>(views));
    EXPECT_EQ(unbudgeted.residencyStats().acquisitions, 0u);

    io::PackLoadOptions cold_options;
    cold_options.coldLoad = true;
    const auto cold =
        core::PreprocessedReference::load(path, cold_options);
    uint64_t largest = 0;
    for (size_t c = 0; c < cold.numChromosomes(); ++c)
        largest = std::max(largest, cold.shardBytes(c));

    // Budget of one shard with one worker: every shard switch evicts.
    core::ShardedBatchConfig batch_config;
    batch_config.threads = 1;
    batch_config.memBudgetBytes = largest;
    const core::ShardedBatchMapper budgeted(cold, fixture.config,
                                            batch_config);
    expectSameResults(
        budgeted.mapBatch(std::span<const std::string_view>(views)),
        expected);
    const auto stats = budgeted.residencyStats();
    EXPECT_GT(stats.acquisitions, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.peakResidentBytes, largest);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Work stealing
// ---------------------------------------------------------------------

TEST(ParallelSteal, CoversEveryItemExactlyOnce)
{
    for (const int workers : {1, 2, 4, 8}) {
        util::ThreadPool pool(workers);
        for (const size_t items : {size_t{0}, size_t{1}, size_t{7},
                                   size_t{64}, size_t{1000}}) {
            std::vector<std::atomic<int>> hits(items);
            pool.parallelSteal(items, [&](size_t item, int worker_id) {
                EXPECT_LT(item, items);
                EXPECT_GE(worker_id, 0);
                EXPECT_LT(worker_id, workers);
                hits[item].fetch_add(1, std::memory_order_relaxed);
            });
            for (size_t i = 0; i < items; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "item " << i << " with " << workers << " workers";
        }
    }
}

TEST(ParallelSteal, ImbalancedItemsStillAllRun)
{
    // First items are lightweight, the last ones heavy: the initial
    // contiguous split gives one worker all the heavy tail, so the
    // others must steal to finish.
    util::ThreadPool pool(4);
    constexpr size_t kItems = 64;
    std::vector<std::atomic<int>> hits(kItems);
    std::atomic<uint64_t> sink{0};
    pool.parallelSteal(kItems, [&](size_t item, int) {
        if (item >= kItems - 8) {
            uint64_t acc = 0;
            for (uint64_t i = 0; i < 2'000'000; ++i)
                acc += i * i;
            sink.fetch_add(acc, std::memory_order_relaxed);
        }
        hits[item].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

// ---------------------------------------------------------------------
// Simulator growth
// ---------------------------------------------------------------------

TEST(MultiChromosomeSim, LengthsNamesAndDeterminism)
{
    sim::MultiGenomeConfig config;
    config.numChromosomes = 5;
    config.totalLength = 100'000;
    Rng rng_a(41);
    const auto a = sim::simulateMultiChromosomeGenome(config, rng_a);
    ASSERT_EQ(a.size(), 5u);

    uint64_t total = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, "chr" + std::to_string(i + 1));
        for (const char base : a[i].seq)
            ASSERT_TRUE(base == 'A' || base == 'C' || base == 'G' ||
                        base == 'T');
        total += a[i].seq.size();
        if (i + 2 < a.size()) { // last one absorbs rounding remainder
            EXPECT_GT(a[i].seq.size(), a[i + 1].seq.size());
        }
    }
    EXPECT_EQ(total, config.totalLength);

    Rng rng_b(41);
    const auto b = sim::simulateMultiChromosomeGenome(config, rng_b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].seq, b[i].seq) << "chr " << i;
}

TEST(MultiChromosomeSim, RepeatReportAccountsPlantedBases)
{
    sim::MultiGenomeConfig config;
    config.numChromosomes = 4;
    config.totalLength = 200'000;
    config.repeats.repeatFraction = 0.05;
    config.repeats.repeatMotifLen = 100;
    config.repeats.repeatMotifCount = 2;
    config.repeats.tandemFraction = 0.06;
    config.repeats.tandemUnitLen = 40;
    config.repeats.tandemMaxCopies = 10;

    Rng rng(43);
    sim::RepeatReport report;
    const auto chromosomes =
        sim::simulateMultiChromosomeGenome(config, rng, &report);

    // Planted bases land within 20% of the configured targets (the
    // planting loops stop at the first overshoot).
    const auto near = [](uint64_t actual, double target) {
        EXPECT_GE(actual, static_cast<uint64_t>(target * 0.8));
        EXPECT_LE(actual, static_cast<uint64_t>(target * 1.2));
    };
    near(report.dispersedBases, 0.05 * 200'000);
    near(report.tandemBases, 0.06 * 200'000);
    EXPECT_GT(report.tandemArrays, 0u);

    // Dispersed families span chromosomes: the motif pool is drawn
    // once, so some 60-mer of chr1 (a window inside a motif copy —
    // step 20 over 100 bp copies guarantees one probe lands fully
    // inside) recurs verbatim in chr2.
    bool cross_chromosome = false;
    const std::string &chr1 = chromosomes[0].seq;
    const std::string &chr2 = chromosomes[1].seq;
    for (size_t pos = 0; pos + 60 <= chr1.size() && !cross_chromosome;
         pos += 20)
        cross_chromosome =
            chr2.find(chr1.substr(pos, 60)) != std::string::npos;
    EXPECT_TRUE(cross_chromosome);
}

TEST(MultiChromosomeSim, ZeroTandemFractionConsumesNoRngDraws)
{
    // The committed golden CLI outputs depend on the legacy RNG call
    // sequence: at tandemFraction 0 the tandem hook must not consume
    // a single draw, whatever the other tandem knobs say.
    sim::GenomeConfig config;
    config.length = 5'000;
    Rng rng_a(7);
    const auto baseline = sim::simulateGenome(config, rng_a);
    const uint64_t next_a = rng_a.nextU64();

    sim::GenomeConfig tweaked = config;
    tweaked.tandemUnitLen = 7;     // ignored while the
    tweaked.tandemMaxCopies = 100; // fraction stays 0
    Rng rng_b(7);
    EXPECT_EQ(sim::simulateGenome(tweaked, rng_b), baseline);
    EXPECT_EQ(rng_b.nextU64(), next_a);

    // And a nonzero fraction changes the genome but not its length.
    sim::GenomeConfig tandem = config;
    tandem.tandemFraction = 0.10;
    tandem.tandemUnitLen = 25;
    tandem.tandemMaxCopies = 8;
    Rng rng_c(7);
    sim::RepeatReport report;
    const auto with_tandem =
        sim::simulateGenome(tandem, rng_c, &report);
    EXPECT_EQ(with_tandem.size(), baseline.size());
    EXPECT_NE(with_tandem, baseline);
    EXPECT_GT(report.tandemBases, 0u);
}

TEST(MultiDataset, BuildsAlignedPerChromosomePieces)
{
    sim::MultiDatasetConfig config;
    config.genome.numChromosomes = 3;
    config.genome.totalLength = 60'000;
    config.seed = 44;
    const auto datasets = sim::makeMultiDataset(config);
    ASSERT_EQ(datasets.size(), 3u);
    for (const auto &dataset : datasets) {
        EXPECT_FALSE(dataset.name.empty());
        EXPECT_TRUE(dataset.graph.isTopologicallySorted());
        // The donor applies this chromosome's variants to this
        // chromosome's reference; lengths stay within indel slack.
        const double ratio =
            static_cast<double>(dataset.donor.seq().size()) /
            static_cast<double>(dataset.reference.size());
        EXPECT_GT(ratio, 0.95);
        EXPECT_LT(ratio, 1.05);
    }
}

} // namespace
