/**
 * @file
 * Tests for the mapping engine layer below the batch driver: the
 * ThreadPool primitive, MapWorkspace reuse, and SegramMapper's
 * lane-batched mapMany scheduler against the per-read mapRead oracle.
 * The driver itself (ShardedBatchMapper over every engine) is tested
 * in test_driver.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.h"
#include "src/core/segram.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace segram::core
{
namespace
{

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    constexpr size_t kItems = 1'000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallelFor(kItems, 7, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i)
            ++hits[i];
    });
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobsAndSizes)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        const size_t items = 10 + static_cast<size_t>(round) * 13;
        pool.parallelFor(items, 1 + static_cast<size_t>(round),
                         [&](size_t begin, size_t end, int) {
                             for (size_t i = begin; i < end; ++i)
                                 sum += i;
                         });
        EXPECT_EQ(sum.load(), items * (items - 1) / 2);
    }
    // Empty job is a no-op.
    pool.parallelFor(0, 4, [](size_t, size_t, int) { FAIL(); });
}

TEST(ThreadPool, SingleWorkerStillRuns)
{
    util::ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, 2, [&](size_t begin, size_t end, int worker) {
        EXPECT_EQ(worker, 0);
        for (size_t i = begin; i < end; ++i)
            order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WorkerIdsAreInRange)
{
    util::ThreadPool pool(4);
    std::mutex mutex;
    std::set<int> seen;
    pool.parallelFor(200, 1, [&](size_t, size_t, int worker) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(worker);
    });
    EXPECT_FALSE(seen.empty());
    EXPECT_GE(*seen.begin(), 0);
    EXPECT_LT(*seen.rbegin(), pool.size());
}

TEST(ThreadPool, PropagatesExceptionsAndSurvives)
{
    util::ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(100, 1,
                         [&](size_t begin, size_t, int) {
                             if (begin == 42)
                                 throw InputError("boom");
                         }),
        InputError);
    // The pool is still usable after a failed job.
    std::atomic<int> count{0};
    pool.parallelFor(10, 3, [&](size_t begin, size_t end, int) {
        count += static_cast<int>(end - begin);
    });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RejectsZeroChunk)
{
    util::ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(4, 0, [](size_t, size_t, int) {}),
                 InputError);
}

// --------------------------------------------------- engine test fixture

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

/** A mixed workload: mappable, reverse-complemented and junk reads. */
std::vector<std::string>
makeReads(const sim::Dataset &dataset, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> reads;
    for (int i = 0; i < count; ++i) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        std::string read = dataset.donor.seq().substr(start, 300);
        if (i % 3 == 1)
            read = reverseComplement(read);
        if (i % 7 == 6) { // unmappable noise
            read.clear();
            for (int j = 0; j < 200; ++j)
                read.push_back(rng.nextBase());
        }
        reads.push_back(std::move(read));
    }
    return reads;
}

std::vector<std::string_view>
viewsOf(const std::vector<std::string> &reads)
{
    return {reads.begin(), reads.end()};
}

void
expectSameResults(const std::vector<MultiMapResult> &lhs,
                  const std::vector<MultiMapResult> &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].mapped, rhs[i].mapped) << "read " << i;
        EXPECT_EQ(lhs[i].linearStart, rhs[i].linearStart) << "read " << i;
        EXPECT_EQ(lhs[i].editDistance, rhs[i].editDistance)
            << "read " << i;
        EXPECT_EQ(lhs[i].regionsTried, rhs[i].regionsTried)
            << "read " << i;
        EXPECT_EQ(lhs[i].reverseComplemented, rhs[i].reverseComplemented)
            << "read " << i;
        EXPECT_EQ(lhs[i].chromosome, rhs[i].chromosome) << "read " << i;
        EXPECT_EQ(lhs[i].cigar.toString(), rhs[i].cigar.toString())
            << "read " << i;
    }
}

void
expectSameStats(const PipelineStats &lhs, const PipelineStats &rhs)
{
    EXPECT_EQ(lhs.readsTotal, rhs.readsTotal);
    EXPECT_EQ(lhs.readsMapped, rhs.readsMapped);
    EXPECT_EQ(lhs.regionsAligned, rhs.regionsAligned);
    EXPECT_EQ(lhs.alignmentsFound, rhs.alignmentsFound);
    EXPECT_EQ(lhs.seeding.minimizersComputed,
              rhs.seeding.minimizersComputed);
    EXPECT_EQ(lhs.seeding.minimizersKept, rhs.seeding.minimizersKept);
    EXPECT_EQ(lhs.seeding.seedsAvailable, rhs.seeding.seedsAvailable);
    EXPECT_EQ(lhs.seeding.seedsFetched, rhs.seeding.seedsFetched);
    EXPECT_EQ(lhs.seeding.regionsEmitted, rhs.seeding.regionsEmitted);
}

// ---------------------------------------------------------- MapWorkspace

TEST(MapWorkspace, WarmWorkspaceMatchesFreshCalls)
{
    // One workspace reused across a mixed workload (forward, RC and
    // junk reads) must produce exactly what per-call workspaces
    // produce — counters included. This is the reuse contract every
    // ShardedBatchMapper worker relies on.
    const auto dataset = sim::makeDataset(smallConfig(301));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 40, 302);

    MapWorkspace workspace;
    PipelineStats fresh_stats;
    PipelineStats warm_stats;
    std::vector<MultiMapResult> fresh;
    std::vector<MultiMapResult> warm;
    for (const auto &read : reads) {
        MultiMapResult a;
        static_cast<MapResult &>(a) = mapper.mapRead(read, &fresh_stats);
        fresh.push_back(std::move(a));
        MultiMapResult b;
        static_cast<MapResult &>(b) =
            mapper.mapRead(read, &warm_stats, workspace);
        warm.push_back(std::move(b));
    }
    expectSameResults(fresh, warm);
    expectSameStats(fresh_stats, warm_stats);
}

TEST(MapWorkspace, ChainFilterPathReusesBuffers)
{
    // The opt-in chain-filter path flows through workspace.filtered;
    // warm reuse must stay bit-identical there too.
    const auto dataset = sim::makeDataset(smallConfig(303));
    SegramConfig config;
    config.enableChainFilter = true;
    config.chain.maxChains = 3;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 25, 304);

    MapWorkspace workspace;
    std::vector<MultiMapResult> fresh;
    std::vector<MultiMapResult> warm;
    for (const auto &read : reads) {
        MultiMapResult a;
        static_cast<MapResult &>(a) = mapper.mapRead(read, nullptr);
        fresh.push_back(std::move(a));
        MultiMapResult b;
        static_cast<MapResult &>(b) =
            mapper.mapRead(read, nullptr, workspace);
        warm.push_back(std::move(b));
    }
    expectSameResults(fresh, warm);
}

TEST(MapWorkspace, StageTimingsAccumulateWhenStatsRequested)
{
    const auto dataset = sim::makeDataset(smallConfig(305));
    const SegramMapper mapper(dataset.graph, dataset.index, {});
    const auto reads = makeReads(dataset, 10, 306);
    PipelineStats stats;
    MapWorkspace workspace;
    for (const auto &read : reads)
        mapper.mapRead(read, &stats, workspace);
    // Reads were seeded, so the seeding stage must have taken >= 0 time
    // and regions were aligned, so alignment time must be positive.
    EXPECT_GE(stats.timings.seedingSec, 0.0);
    EXPECT_GT(stats.timings.alignSec, 0.0);
    EXPECT_GT(stats.timings.linearizeSec, 0.0);
}

// ------------------------------------------------- regionsTried repair

TEST(SegramMapper, RegionsTriedCountsBothStrands)
{
    const auto dataset = sim::makeDataset(smallConfig(110));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);

    Rng rng(111);
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        std::string read = dataset.donor.seq().substr(start, 300);
        if (trial % 2 == 1)
            read = reverseComplement(read);
        PipelineStats stats;
        const auto result = mapper.mapRead(read, &stats);
        ASSERT_TRUE(result.mapped);
        // Without early exit every candidate region of both strands is
        // aligned, so the per-read counter must equal the stats-side
        // work counter — not just the winning strand's share.
        EXPECT_EQ(result.regionsTried, stats.regionsAligned)
            << "trial " << trial;
        EXPECT_GT(result.regionsTried, 0u);
    }
}

TEST(SegramMapper, MapReadsSchedulerMatchesMapReadLoop)
{
    // The lane-batched region-stream scheduler — including its
    // speculative starts past undecided early-exit checks — must
    // deliver exactly what a sequential mapRead loop delivers: every
    // result field and every counter, for every config that changes
    // the per-strand control flow (early exit, RC retry, region cap)
    // and for batch sizes that leave lanes idle or ragged.
    const auto dataset = sim::makeDataset(smallConfig(120));
    const auto all_reads = makeReads(dataset, 40, 121);

    SegramConfig plain;
    SegramConfig early;
    early.earlyExitFraction = 1.0;
    SegramConfig early_rc;
    early_rc.earlyExitFraction = 1.0;
    early_rc.tryReverseComplement = true;
    SegramConfig capped;
    capped.maxRegions = 2;
    capped.tryReverseComplement = true;
    const SegramConfig configs[] = {plain, early, early_rc, capped};

    for (size_t c = 0; c < std::size(configs); ++c) {
        const SegramMapper mapper(dataset.graph, dataset.index,
                                  configs[c]);
        MapWorkspace workspace;
        for (const size_t count : {size_t{1}, size_t{2}, size_t{5},
                                   all_reads.size()}) {
            const std::vector<std::string> reads(
                all_reads.begin(),
                all_reads.begin() + static_cast<ptrdiff_t>(count));
            const auto views = viewsOf(reads);
            std::vector<MapResult> batched(count);
            PipelineStats batched_stats;
            mapper.mapMany(std::span<const std::string_view>(views),
                            batched, &batched_stats, workspace);

            PipelineStats loop_stats;
            for (size_t i = 0; i < count; ++i) {
                const MapResult solo =
                    mapper.mapRead(reads[i], &loop_stats);
                const MapResult &got = batched[i];
                ASSERT_EQ(solo.mapped, got.mapped)
                    << "config " << c << ", count " << count
                    << ", read " << i;
                EXPECT_EQ(solo.linearStart, got.linearStart)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.editDistance, got.editDistance)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.regionsTried, got.regionsTried)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.reverseComplemented,
                          got.reverseComplemented)
                    << "config " << c << ", read " << i;
                EXPECT_EQ(solo.cigar.toString(), got.cigar.toString())
                    << "config " << c << ", read " << i;
            }
            expectSameStats(loop_stats, batched_stats);
            EXPECT_EQ(batched_stats.readsTotal, count)
                << "config " << c;
        }
    }
}

TEST(SegramMapper, MapManyHandlesEmptyBatchAndReusedWorkspace)
{
    const auto dataset = sim::makeDataset(smallConfig(122));
    SegramConfig config;
    config.earlyExitFraction = 1.0;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    MapWorkspace workspace;

    PipelineStats stats;
    mapper.mapMany({}, {}, &stats, workspace);
    EXPECT_EQ(stats.readsTotal, 0u);

    // Back-to-back batches through one workspace: the second batch
    // must be unaffected by the first one's scheduler state.
    const auto reads = makeReads(dataset, 9, 123);
    const auto views = viewsOf(reads);
    std::vector<MapResult> first(reads.size());
    std::vector<MapResult> second(reads.size());
    mapper.mapMany(std::span<const std::string_view>(views), first,
                    nullptr, workspace);
    mapper.mapMany(std::span<const std::string_view>(views), second,
                    nullptr, workspace);
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(first[i].mapped, second[i].mapped) << "read " << i;
        EXPECT_EQ(first[i].linearStart, second[i].linearStart)
            << "read " << i;
        EXPECT_EQ(first[i].editDistance, second[i].editDistance)
            << "read " << i;
        EXPECT_EQ(first[i].cigar.toString(), second[i].cigar.toString())
            << "read " << i;
    }
}

} // namespace
} // namespace segram::core
