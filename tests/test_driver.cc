/**
 * @file
 * Tests for the one batch driver, ShardedBatchMapper, over every
 * engine: construction checks, the owned-string and empty-batch
 * overloads, error propagation through the pool, read-exact stats
 * folding, chromosome selection, tie-breaking between identical
 * chromosomes, bit-identity against per-read oracle loops at every
 * thread count for SeGraM and for the CPU baselines, batches in flight
 * together (submit/collect), and the MapPipeline streaming loop built
 * on them: bytes, totals and error order against the batch-at-a-time
 * loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/baseline/mappers.h"
#include "src/core/engine.h"
#include "src/core/map_pipeline.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/io/fastx.h"
#include "src/io/paf.h"
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

/**
 * A reference with one chromosome per dataset, named chr1, chr2, ...
 * (a dataset may appear more than once: identical chromosomes).
 */
PreprocessedReference
referenceOf(const std::vector<const sim::Dataset *> &datasets)
{
    std::vector<PreprocessedChromosome> chromosomes;
    for (size_t c = 0; c < datasets.size(); ++c)
        chromosomes.push_back({"chr" + std::to_string(c + 1),
                               datasets[c]->graph, datasets[c]->index});
    return PreprocessedReference(std::move(chromosomes));
}

/**
 * A mixed workload drawn round-robin from @p donors: error-free reads,
 * every third one reverse-complemented, every seventh one random junk.
 */
std::vector<std::string>
makeReads(const std::vector<const sim::Dataset *> &donors, int count,
          uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> reads;
    for (int i = 0; i < count; ++i) {
        const std::string &donor =
            donors[static_cast<size_t>(i) % donors.size()]->donor.seq();
        const uint64_t start = rng.nextBelow(donor.size() - 400);
        std::string read = donor.substr(start, 300);
        if (i % 3 == 1)
            read = reverseComplement(read);
        if (i % 7 == 6) {
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

/** The CLI's baseline engines: one RC-retrying baseline per shard. */
template <typename Baseline>
std::vector<std::unique_ptr<MappingEngine>>
baselineEngines(const PreprocessedReference &reference)
{
    std::vector<std::unique_ptr<MappingEngine>> engines;
    for (size_t c = 0; c < reference.numChromosomes(); ++c)
        engines.push_back(std::make_unique<RcRetryEngine>(
            std::make_unique<Baseline>(reference.graph(c),
                                       reference.index(c))));
    return engines;
}

/**
 * The per-read oracle: maps every read on every engine one at a time
 * and merges by the documented rule — lowest edit distance wins, ties
 * go to the earlier chromosome — counting one readsTotal per logical
 * read. Independent of the driver's grid, pool and workspaces.
 */
std::vector<MultiMapResult>
oracleMap(const PreprocessedReference &reference,
          const std::vector<std::unique_ptr<MappingEngine>> &engines,
          const std::vector<std::string> &reads, PipelineStats *stats)
{
    std::vector<MultiMapResult> results(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        for (size_t c = 0; c < engines.size(); ++c) {
            MapWorkspace workspace;
            const MapResult result =
                engines[c]->mapOne(reads[i], stats, workspace);
            if (result.mapped &&
                (!results[i].mapped ||
                 result.editDistance < results[i].editDistance)) {
                static_cast<MapResult &>(results[i]) = result;
                results[i].chromosome = reference.name(c);
            }
        }
    }
    stats->readsTotal = reads.size();
    stats->readsMapped = static_cast<uint64_t>(
        std::count_if(results.begin(), results.end(),
                      [](const MultiMapResult &r) { return r.mapped; }));
    return results;
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

// --------------------------------------------------------- construction

TEST(ShardedBatchMapper, RejectsBadEngineLists)
{
    const auto dataset = sim::makeDataset(smallConfig(79));
    const auto reference = referenceOf({&dataset, &dataset});

    // Too few, too many, and no engines for a two-chromosome reference.
    auto one = baselineEngines<baseline::VgLike>(reference);
    one.pop_back();
    EXPECT_THROW(ShardedBatchMapper(reference, std::move(one)), InputError);
    auto three = baselineEngines<baseline::VgLike>(reference);
    three.push_back(std::make_unique<baseline::VgLike>(dataset.graph,
                                                       dataset.index));
    EXPECT_THROW(ShardedBatchMapper(reference, std::move(three)),
                 InputError);
    EXPECT_THROW(ShardedBatchMapper(
                     reference, std::vector<std::unique_ptr<MappingEngine>>{}),
                 InputError);

    // The right count with a null entry.
    auto with_null = baselineEngines<baseline::VgLike>(reference);
    with_null[1].reset();
    EXPECT_THROW(ShardedBatchMapper(reference, std::move(with_null)),
                 InputError);

    // A reference without chromosomes has nothing to shard.
    EXPECT_THROW(ShardedBatchMapper(PreprocessedReference{}), InputError);
}

// ------------------------------------------------- batches and threads

TEST(ShardedBatchMapper, FourThreadsMatchOneThreadAndMapReadLoop)
{
    const auto dataset = sim::makeDataset(smallConfig(101));
    const auto reference = referenceOf({&dataset});
    SegramConfig config;
    config.tryReverseComplement = true;
    const auto reads = makeReads({&dataset}, 30, 102);
    const auto views = viewsOf(reads);

    PipelineStats stats1;
    const ShardedBatchMapper one(reference, config,
                                 {.threads = 1, .chunkSize = 4});
    const auto results1 = one.mapBatch(
        std::span<const std::string_view>(views), &stats1);

    PipelineStats stats4;
    const ShardedBatchMapper four(reference, config,
                                  {.threads = 4, .chunkSize = 3});
    const auto results4 = four.mapBatch(
        std::span<const std::string_view>(views), &stats4);

    expectSameResults(results1, results4);
    expectSameStats(stats1, stats4);
    EXPECT_EQ(stats4.readsTotal, reads.size());

    // Both match a bare mapRead loop.
    const SegramMapper mapper(reference, 0, config);
    PipelineStats stats_loop;
    for (size_t i = 0; i < reads.size(); ++i) {
        const auto result = mapper.mapRead(reads[i], &stats_loop);
        EXPECT_EQ(result.mapped, results4[i].mapped) << "read " << i;
        EXPECT_EQ(result.linearStart, results4[i].linearStart)
            << "read " << i;
        EXPECT_EQ(results4[i].chromosome, result.mapped ? "chr1" : "")
            << "read " << i;
    }
    expectSameStats(stats4, stats_loop);
}

TEST(ShardedBatchMapper, OwnedStringOverloadAndEmptyBatch)
{
    const auto dataset = sim::makeDataset(smallConfig(103));
    const auto reference = referenceOf({&dataset});
    const ShardedBatchMapper batch(reference, SegramConfig{},
                                   {.threads = 2});
    EXPECT_EQ(batch.threads(), 2);
    EXPECT_EQ(batch.numShards(), 1u);

    const auto reads = makeReads({&dataset}, 8, 104);
    const auto via_strings =
        batch.mapBatch(std::span<const std::string>(reads));
    const auto views = viewsOf(reads);
    const auto via_views =
        batch.mapBatch(std::span<const std::string_view>(views));
    expectSameResults(via_strings, via_views);

    PipelineStats stats;
    const auto empty =
        batch.mapBatch(std::span<const std::string>{}, &stats);
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(stats.readsTotal, 0u);
}

TEST(ShardedBatchMapper, PropagatesMapperErrors)
{
    // An empty read is a SegramMapper error; it must surface as
    // InputError through the pool.
    const auto dataset = sim::makeDataset(smallConfig(105));
    const auto reference = referenceOf({&dataset, &dataset});
    const std::vector<std::string> reads = {"ACGTACGTACGT", ""};
    const ShardedBatchMapper segram(reference, SegramConfig{},
                                    {.threads = 2});
    EXPECT_THROW(segram.mapBatch(std::span<const std::string>(reads)),
                 InputError);
    // The driver stays usable after a failed batch.
    EXPECT_EQ(segram.mapBatch(std::span<const std::string>(reads.data(), 1))
                  .size(),
              1u);
}

TEST(ShardedBatchMapper, StatsFoldReadExactAtOneAndFourThreads)
{
    const auto chr1 = sim::makeDataset(smallConfig(106));
    const auto chr2 = sim::makeDataset(smallConfig(107));
    const auto reference = referenceOf({&chr1, &chr2});
    SegramConfig config;
    config.earlyExitFraction = 1.0;

    // Half the reads from each chromosome's donor.
    std::vector<std::string> reads;
    Rng rng(108);
    for (int i = 0; i < 10; ++i) {
        const auto &donor = (i % 2 == 0 ? chr1 : chr2).donor;
        const uint64_t start = rng.nextBelow(donor.seq().size() - 400);
        reads.push_back(donor.seq().substr(start, 300));
    }
    const auto views = viewsOf(reads);

    PipelineStats stats1;
    const ShardedBatchMapper one(reference, config, {.threads = 1});
    const auto results1 = one.mapBatch(
        std::span<const std::string_view>(views), &stats1);
    PipelineStats stats4;
    const ShardedBatchMapper four(reference, config,
                                  {.threads = 4, .chunkSize = 2});
    const auto results4 = four.mapBatch(
        std::span<const std::string_view>(views), &stats4);

    expectSameResults(results1, results4);
    expectSameStats(stats1, stats4);
    // The per-chromosome fold stays read-exact: one readsTotal per
    // logical read, even though each read ran on every chromosome.
    EXPECT_EQ(stats4.readsTotal, reads.size());
    EXPECT_EQ(stats4.readsMapped, reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_TRUE(results4[i].mapped) << "read " << i;
        EXPECT_EQ(results4[i].chromosome, i % 2 == 0 ? "chr1" : "chr2")
            << "read " << i;
    }
}

TEST(ShardedBatchMapper, PicksTheRightChromosome)
{
    const auto chr1 = sim::makeDataset(smallConfig(76));
    const auto chr2 = sim::makeDataset(smallConfig(77));
    const auto reference = referenceOf({&chr1, &chr2});
    SegramConfig config;
    config.earlyExitFraction = 1.0;
    const ShardedBatchMapper mapper(reference, config);
    EXPECT_EQ(mapper.numShards(), 2u);
    EXPECT_EQ(mapper.engineName(), "segram");

    Rng rng(78);
    std::vector<std::string> reads;
    for (int trial = 0; trial < 4; ++trial) {
        const auto &donor = (trial % 2 == 0 ? chr1 : chr2).donor;
        const uint64_t start = rng.nextBelow(donor.seq().size() - 400);
        reads.push_back(donor.seq().substr(start, 300));
    }
    PipelineStats stats;
    const auto results =
        mapper.mapBatch(std::span<const std::string>(reads), &stats);
    for (size_t i = 0; i < reads.size(); ++i) {
        ASSERT_TRUE(results[i].mapped) << "read " << i;
        EXPECT_EQ(results[i].chromosome, i % 2 == 0 ? "chr1" : "chr2")
            << "read " << i;
        EXPECT_EQ(results[i].editDistance, 0) << "read " << i;
    }
    EXPECT_EQ(stats.readsTotal, reads.size());
    EXPECT_EQ(stats.readsMapped, reads.size());
}

// ------------------------------------------------ batches in flight

/** Also the lane-batching counters, which depend on batch grouping. */
void
expectSameLaneCounters(const PipelineStats &lhs, const PipelineStats &rhs)
{
    EXPECT_EQ(lhs.batchedWindows, rhs.batchedWindows);
    EXPECT_EQ(lhs.batchLaunches, rhs.batchLaunches);
    EXPECT_EQ(lhs.scalarWindows, rhs.scalarWindows);
}

TEST(ShardedBatchMapper, OverlappingSubmitsMatchSequentialMapBatch)
{
    const auto chr1 = sim::makeDataset(smallConfig(120));
    const auto chr2 = sim::makeDataset(smallConfig(121));
    const auto reference = referenceOf({&chr1, &chr2});
    SegramConfig config;
    config.tryReverseComplement = true;
    const auto reads = makeReads({&chr1, &chr2}, 20, 122);
    const auto views = viewsOf(reads);

    // Batch sizes that are not multiples of the chunk size (8), so the
    // batches end on partial chunks.
    for (const size_t batch : {size_t{1}, size_t{5}, size_t{13}}) {
        std::vector<std::span<const std::string_view>> batches;
        for (size_t begin = 0; begin < views.size(); begin += batch)
            batches.push_back(std::span<const std::string_view>(views).subspan(
                begin, std::min(batch, views.size() - begin)));

        // The reference: k sequential mapBatch calls on one thread.
        const ShardedBatchMapper serial(reference, config, {.threads = 1});
        PipelineStats serial_stats;
        std::vector<MultiMapResult> serial_results;
        for (const auto &part : batches)
            for (auto &result : serial.mapBatch(part, &serial_stats))
                serial_results.push_back(std::move(result));

        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(testing::Message() << "batch " << batch << ", "
                                            << threads << " threads");
            const ShardedBatchMapper mapper(reference, config,
                                            {.threads = threads});
            // Every batch is submitted before the first collect.
            PipelineStats stats;
            std::vector<ShardedBatchMapper::Ticket> tickets;
            for (const auto &part : batches)
                tickets.push_back(mapper.submit(part, &stats));
            std::vector<MultiMapResult> results;
            for (const auto ticket : tickets)
                for (auto &result : mapper.collect(ticket))
                    results.push_back(std::move(result));
            expectSameResults(results, serial_results);
            expectSameStats(stats, serial_stats);
            expectSameLaneCounters(stats, serial_stats);
            EXPECT_EQ(stats.readsTotal, reads.size());
        }
    }
}

TEST(ShardedBatchMapper, TicketsAreCollectedOrCancelledOnce)
{
    const auto dataset = sim::makeDataset(smallConfig(123));
    const auto reference = referenceOf({&dataset});
    const ShardedBatchMapper mapper(reference, SegramConfig{},
                                    {.threads = 2});
    const auto reads = makeReads({&dataset}, 6, 124);
    const auto views = viewsOf(reads);
    const auto ticket =
        mapper.submit(std::span<const std::string_view>(views));
    EXPECT_EQ(mapper.collect(ticket).size(), reads.size());
    EXPECT_THROW(mapper.collect(ticket), InputError);
    EXPECT_THROW(mapper.collect({}), InputError);

    // A cancelled ticket is gone too, and adds nothing to its stats.
    PipelineStats stats;
    const auto dropped =
        mapper.submit(std::span<const std::string_view>(views), &stats);
    mapper.cancel(dropped);
    EXPECT_THROW(mapper.collect(dropped), InputError);
    EXPECT_EQ(stats.readsTotal, 0u);
}

TEST(ShardedBatchMapper, DestructionWithUncollectedTicketsDoesNotHang)
{
    const auto dataset = sim::makeDataset(smallConfig(125));
    const auto reference = referenceOf({&dataset, &dataset});
    // The reads outlive the mapper, as submit() requires.
    const auto reads = makeReads({&dataset}, 60, 126);
    const auto views = viewsOf(reads);
    for (const int threads : {1, 4}) {
        const ShardedBatchMapper mapper(reference, SegramConfig{},
                                        {.threads = threads,
                                         .chunkSize = 1});
        PipelineStats stats;
        for (int k = 0; k < 3; ++k)
            mapper.submit(std::span<const std::string_view>(views), &stats);
    }
}

// --------------------------------------------------------- MapPipeline

/** @p reads as FASTQ text, named read0, read1, ...; record @p bad_record (if
 *  any) gets a broken '+' separator line. */
std::string
fastqOf(const std::vector<std::string> &reads,
        size_t bad_record = SIZE_MAX)
{
    std::string text;
    for (size_t i = 0; i < reads.size(); ++i) {
        text += "@read" + std::to_string(i) + "\n" + reads[i] + "\n";
        text += i == bad_record ? "x\n" : "+\n";
        text += std::string(reads[i].size(), 'I') + "\n";
    }
    return text;
}

/** The batch-at-a-time loop MapPipeline replaces: the first
 *  @p num_reads reads in batches of @p batch, mapped and written in
 *  turn. */
std::string
loopPaf(const PreprocessedReference &reference,
        const ShardedBatchMapper &mapper,
        const std::vector<std::string> &reads, size_t num_reads,
        size_t batch, PipelineStats *stats)
{
    const PafFormatter formatter(reference);
    std::string out;
    for (size_t begin = 0; begin < num_reads; begin += batch) {
        const size_t end = std::min(num_reads, begin + batch);
        const auto results = mapper.mapBatch(
            std::span<const std::string>(reads).subspan(begin, end - begin),
            stats);
        for (size_t i = begin; i < end; ++i) {
            const std::string name = "read" + std::to_string(i);
            formatter.format(out, name, reads[i].size(),
                             results[i - begin]);
        }
    }
    return out;
}

/** Delegates to an inner engine but fails on reads of one length. */
class FailingEngine : public MappingEngine
{
  public:
    FailingEngine(std::unique_ptr<MappingEngine> inner, size_t bad_len)
        : inner_(std::move(inner)), badLen_(bad_len)
    {
    }

    MapResult
    mapOne(std::string_view read, PipelineStats *stats,
           MapWorkspace &workspace) const override
    {
        if (read.size() == badLen_)
            throw InputError("unmappable read of " +
                             std::to_string(badLen_) + " bp");
        return inner_->mapOne(read, stats, workspace);
    }

    std::string_view engineName() const override
    {
        return inner_->engineName();
    }

  private:
    std::unique_ptr<MappingEngine> inner_;
    size_t badLen_;
};

TEST(MapPipeline, MatchesTheBatchAtATimeLoop)
{
    const auto chr1 = sim::makeDataset(smallConfig(130));
    const auto chr2 = sim::makeDataset(smallConfig(131));
    const auto reference = referenceOf({&chr1, &chr2});
    SegramConfig config;
    config.tryReverseComplement = true;
    const auto reads = makeReads({&chr1, &chr2}, 21, 132);
    const PafFormatter formatter(reference);

    for (const size_t batch : {size_t{1}, size_t{5}, size_t{13}}) {
        const ShardedBatchMapper serial(reference, config, {.threads = 1});
        PipelineStats loop_stats;
        const std::string expected = loopPaf(
            reference, serial, reads, reads.size(), batch, &loop_stats);
        uint64_t bases = 0;
        for (const auto &read : reads)
            bases += read.size();

        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(testing::Message() << "batch " << batch << ", "
                                            << threads << " threads");
            const ShardedBatchMapper mapper(reference, config,
                                            {.threads = threads});
            std::istringstream in(fastqOf(reads));
            io::FastxReader reader(in);
            std::ostringstream out;
            {
                io::PafWriter writer(out);
                MapPipeline pipeline(reader, mapper, formatter, writer,
                                     batch);
                pipeline.run();
                const MapRunTotals &totals = pipeline.totals();
                EXPECT_EQ(totals.reads, reads.size());
                EXPECT_EQ(totals.bases, bases);
                EXPECT_EQ(totals.mapped, loop_stats.readsMapped);
                expectSameStats(totals.stats, loop_stats);
                expectSameLaneCounters(totals.stats, loop_stats);
                EXPECT_GT(totals.wallSec, 0.0);
                EXPECT_GE(pipeline.poolBusyFraction(), 0.0);
                EXPECT_LE(pipeline.poolBusyFraction(), 1.0);
            }
            EXPECT_EQ(out.str(), expected);
        }
    }
}

TEST(MapPipeline, ParseErrorInALaterBatchWritesTheBatchesBeforeIt)
{
    const auto dataset = sim::makeDataset(smallConfig(133));
    const auto reference = referenceOf({&dataset});
    const auto reads = makeReads({&dataset}, 40, 134);
    const PafFormatter formatter(reference);
    const ShardedBatchMapper serial(reference, SegramConfig{},
                                    {.threads = 1});
    // Record 23 is malformed: batch 4 of 5 reads fails to parse, so
    // batches 0-3 (reads 0-19) are written and nothing after them.
    const std::string expected =
        loopPaf(reference, serial, reads, 20, 5, nullptr);
    ASSERT_FALSE(expected.empty());
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        const ShardedBatchMapper mapper(reference, SegramConfig{},
                                        {.threads = threads});
        std::istringstream in(fastqOf(reads, 23));
        io::FastxReader reader(in);
        std::ostringstream out;
        {
            io::PafWriter writer(out);
            MapPipeline pipeline(reader, mapper, formatter, writer, 5);
            try {
                pipeline.run();
                ADD_FAILURE() << "run() did not throw";
            } catch (const InputError &error) {
                EXPECT_NE(std::string(error.what()).find("FASTQ line"),
                          std::string::npos)
                    << error.what();
            }
        }
        EXPECT_EQ(out.str(), expected);
        // Nothing is left in flight: the mapper is free for a new batch.
        EXPECT_EQ(mapper.mapBatch(std::span<const std::string>(reads)
                                      .first(3))
                      .size(),
                  3u);
    }
}

TEST(MapPipeline, FirstErrorInInputOrderWins)
{
    const auto dataset = sim::makeDataset(smallConfig(135));
    const auto reference = referenceOf({&dataset});
    auto reads = makeReads({&dataset}, 40, 136);
    // Read 12 (batch 2) fails to map; record 31 (batch 6) fails to
    // parse. Batches 3-5 may already be mapping when batch 2 fails.
    reads[12] = reads[12].substr(0, 173);
    const PafFormatter formatter(reference);
    const ShardedBatchMapper serial(reference, SegramConfig{},
                                    {.threads = 1});
    const std::string expected =
        loopPaf(reference, serial, reads, 10, 5, nullptr);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        std::vector<std::unique_ptr<MappingEngine>> engines;
        engines.push_back(std::make_unique<FailingEngine>(
            std::make_unique<SegramMapper>(reference, 0), 173));
        const ShardedBatchMapper mapper(reference, std::move(engines),
                                        {.threads = threads});
        std::istringstream in(fastqOf(reads, 31));
        io::FastxReader reader(in);
        std::ostringstream out;
        {
            io::PafWriter writer(out);
            MapPipeline pipeline(reader, mapper, formatter, writer, 5);
            try {
                pipeline.run();
                ADD_FAILURE() << "run() did not throw";
            } catch (const InputError &error) {
                EXPECT_NE(std::string(error.what()).find("unmappable"),
                          std::string::npos)
                    << error.what();
            }
        }
        EXPECT_EQ(out.str(), expected);
    }
}

TEST(MapPipeline, WriteErrorLeavesNothingInFlight)
{
    const auto dataset = sim::makeDataset(smallConfig(137));
    const auto reference = referenceOf({&dataset});
    const auto reads = makeReads({&dataset}, 30, 138);
    const PafFormatter formatter(reference);
    const ShardedBatchMapper mapper(reference, SegramConfig{},
                                    {.threads = 4});
    std::istringstream in(fastqOf(reads));
    io::FastxReader reader(in);
    // A sink that has already failed, behind a writer that flushes on
    // every record: the first write of batch 0 throws while later
    // batches are mapping.
    std::ostringstream sink;
    sink.setstate(std::ios::badbit);
    io::PafWriter writer(sink, 1);
    MapPipeline pipeline(reader, mapper, formatter, writer, 3);
    EXPECT_THROW(pipeline.run(), IoError);
    EXPECT_EQ(
        mapper.mapBatch(std::span<const std::string>(reads).first(3)).size(),
        3u);
}

// ------------------------------------------------------------ baselines

/** Both baselines, driven on a 2-chromosome reference. */
template <typename Baseline>
void
expectBaselineMatchesOracle(uint64_t seed)
{
    const auto chr1 = sim::makeDataset(smallConfig(seed));
    const auto chr2 = sim::makeDataset(smallConfig(seed + 1));
    const auto reference = referenceOf({&chr1, &chr2});
    const auto reads = makeReads({&chr1, &chr2}, 24, seed + 2);
    const auto views = viewsOf(reads);

    PipelineStats oracle_stats;
    const auto oracle = oracleMap(
        reference, baselineEngines<Baseline>(reference), reads,
        &oracle_stats);
    // Error-free reads from the two donors mostly map, each to its own
    // chromosome.
    int mapped = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        if (i % 7 == 6 || !oracle[i].mapped)
            continue;
        ++mapped;
        EXPECT_EQ(oracle[i].chromosome, i % 2 == 0 ? "chr1" : "chr2")
            << "read " << i;
    }
    EXPECT_GE(mapped, 16);

    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        const ShardedBatchMapper mapper(
            reference, baselineEngines<Baseline>(reference),
            {.threads = threads, .chunkSize = 5});
        PipelineStats stats;
        const auto results = mapper.mapBatch(
            std::span<const std::string_view>(views), &stats);
        expectSameResults(results, oracle);
        expectSameStats(stats, oracle_stats);
    }
}

TEST(ShardedBatchMapper, GraphAlignerLikeMatchesOracleAtEveryThreadCount)
{
    expectBaselineMatchesOracle<baseline::GraphAlignerLike>(110);
}

TEST(ShardedBatchMapper, VgLikeMatchesOracleAtEveryThreadCount)
{
    expectBaselineMatchesOracle<baseline::VgLike>(113);
}

TEST(ShardedBatchMapper, TiesGoToTheEarlierChromosome)
{
    // Two chromosomes carrying the same sequence: every hit ties, so
    // every mapped read must name chr1 — for every engine and at every
    // thread count, whatever order the grid items finish in.
    const auto dataset = sim::makeDataset(smallConfig(116));
    const auto reference = referenceOf({&dataset, &dataset});
    const auto reads = makeReads({&dataset}, 21, 117);
    SegramConfig segram_config;
    segram_config.tryReverseComplement = true;

    for (const std::string engine : {"segram", "graphaligner", "vg"}) {
        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(testing::Message()
                         << engine << ", " << threads << " threads");
            std::vector<std::unique_ptr<MappingEngine>> engines;
            if (engine == "segram") {
                engines = segramEngines(reference, segram_config);
            } else if (engine == "graphaligner") {
                engines =
                    baselineEngines<baseline::GraphAlignerLike>(reference);
            } else {
                engines = baselineEngines<baseline::VgLike>(reference);
            }
            const ShardedBatchMapper mapper(
                reference, std::move(engines),
                {.threads = threads, .chunkSize = 2});
            const auto results =
                mapper.mapBatch(std::span<const std::string>(reads));
            int mapped = 0;
            for (size_t i = 0; i < results.size(); ++i) {
                if (!results[i].mapped)
                    continue;
                ++mapped;
                EXPECT_EQ(results[i].chromosome, "chr1") << "read " << i;
            }
            EXPECT_GE(mapped, 15);
        }
    }
}

// ------------------------------------------- MappingEngine polymorphism

TEST(ShardedBatchMapper, AllBackendsDriveThroughTheInterface)
{
    const auto dataset = sim::makeDataset(smallConfig(109));
    const auto reference = referenceOf({&dataset});
    const std::string read = dataset.donor.seq().substr(2'000, 300);

    const auto makeOne = [&](int kind) -> std::unique_ptr<MappingEngine> {
        if (kind == 0)
            return std::make_unique<SegramMapper>(reference, 0);
        if (kind == 1)
            return std::make_unique<baseline::GraphAlignerLike>(
                dataset.graph, dataset.index);
        return std::make_unique<baseline::VgLike>(dataset.graph,
                                                  dataset.index);
    };
    const char *names[] = {"segram", "graphaligner-like", "vg-like"};
    for (int kind = 0; kind < 3; ++kind) {
        const auto engine = makeOne(kind);
        EXPECT_EQ(engine->engineName(), names[kind]);
        PipelineStats stats;
        MapWorkspace workspace;
        const MapResult result = engine->mapOne(read, &stats, workspace);
        EXPECT_TRUE(result.mapped) << names[kind];
        EXPECT_EQ(stats.readsTotal, 1u) << names[kind];
        EXPECT_EQ(stats.readsMapped, 1u) << names[kind];

        // Every backend also batches deterministically on the driver,
        // which reports the engine's name.
        std::vector<std::unique_ptr<MappingEngine>> engines;
        engines.push_back(makeOne(kind));
        const ShardedBatchMapper batch(reference, std::move(engines),
                                       {.threads = 3, .chunkSize = 1});
        EXPECT_EQ(batch.engineName(), names[kind]);
        const std::vector<std::string> reads = {read, read, read};
        const auto results =
            batch.mapBatch(std::span<const std::string>(reads));
        ASSERT_EQ(results.size(), 3u);
        for (const auto &batched : results) {
            EXPECT_EQ(batched.mapped, result.mapped) << names[kind];
            EXPECT_EQ(batched.linearStart, result.linearStart);
            EXPECT_EQ(batched.editDistance, result.editDistance);
            EXPECT_EQ(batched.chromosome, "chr1");
        }
    }
}

} // namespace
} // namespace segram::core
