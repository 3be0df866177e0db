/**
 * @file
 * Pack-format tests: round-trip equivalence (a pack-loaded reference
 * must be indistinguishable from the freshly built one, down to
 * bit-identical mapping output) and rejection of malformed packs
 * (truncation, bad magic, version mismatch, corrupted payloads,
 * out-of-bounds table records) — the loader must throw InputError,
 * never crash or hand out a span it has not validated.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"
#include "src/io/pack.h"
#include "src/io/paf.h"
#include "src/sim/dataset.h"
#include "src/sim/read_sim.h"
#include "src/util/check.h"

namespace
{

using namespace segram;

sim::DatasetConfig
smallConfig(uint64_t seed)
{
    sim::DatasetConfig config;
    config.genome.length = 30'000;
    config.index.bucketBits = 12;
    config.seed = seed;
    return config;
}

/** Builds a two-chromosome reference from two synthetic datasets. */
core::PreprocessedReference
makeReference(std::vector<sim::Dataset> &datasets)
{
    std::vector<core::PreprocessedChromosome> chromosomes;
    for (size_t i = 0; i < datasets.size(); ++i) {
        chromosomes.push_back({"chr" + std::to_string(i + 1),
                               std::move(datasets[i].graph),
                               std::move(datasets[i].index)});
    }
    return core::PreprocessedReference(std::move(chromosomes));
}

class PackTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("segram_pack_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    path(const char *name) const
    {
        return (dir_ / name).string();
    }

    static std::vector<std::byte>
    readAll(const std::string &file)
    {
        std::ifstream in(file, std::ios::binary);
        std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
        return {reinterpret_cast<const std::byte *>(bytes.data()),
                reinterpret_cast<const std::byte *>(bytes.data()) +
                    bytes.size()};
    }

    static void
    writeAll(const std::string &file, const std::vector<std::byte> &bytes)
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::filesystem::path dir_;
};

TEST_F(PackTest, GraphAndIndexRoundTripExactly)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(11)));
    datasets.push_back(sim::makeDataset(smallConfig(12)));
    const auto fresh = makeReference(datasets);
    fresh.save(path("ref.segram"));

    const auto loaded =
        core::PreprocessedReference::load(path("ref.segram"));
    ASSERT_TRUE(loaded.fromPack());
    ASSERT_EQ(loaded.numChromosomes(), fresh.numChromosomes());

    for (size_t c = 0; c < fresh.numChromosomes(); ++c) {
        EXPECT_EQ(loaded.name(c), fresh.name(c));
        const auto &got = loaded.graph(c);
        const auto &want = fresh.graph(c);
        ASSERT_EQ(got.numNodes(), want.numNodes());
        ASSERT_EQ(got.numEdges(), want.numEdges());
        ASSERT_EQ(got.totalSeqLen(), want.totalSeqLen());
        EXPECT_TRUE(got.isTopologicallySorted());
        for (graph::NodeId id = 0; id < want.numNodes(); ++id) {
            EXPECT_EQ(got.nodeSeq(id), want.nodeSeq(id));
            const auto &got_node = got.node(id);
            const auto &want_node = want.node(id);
            EXPECT_EQ(got_node.seqStart, want_node.seqStart);
            EXPECT_EQ(got_node.linearOffset, want_node.linearOffset);
            EXPECT_EQ(got_node.refPos, want_node.refPos);
            EXPECT_EQ(got_node.isAlt, want_node.isAlt);
            ASSERT_EQ(got.successors(id).size(),
                      want.successors(id).size());
            for (size_t e = 0; e < want.successors(id).size(); ++e)
                EXPECT_EQ(got.successors(id)[e], want.successors(id)[e]);
        }

        const auto &got_idx = loaded.index(c);
        const auto &want_idx = fresh.index(c);
        EXPECT_EQ(got_idx.bucketBits(), want_idx.bucketBits());
        EXPECT_EQ(got_idx.sketch().k, want_idx.sketch().k);
        EXPECT_EQ(got_idx.sketch().w, want_idx.sketch().w);
        EXPECT_EQ(got_idx.frequencyThreshold(),
                  want_idx.frequencyThreshold());
        const auto &got_stats = got_idx.stats();
        const auto &want_stats = want_idx.stats();
        EXPECT_EQ(got_stats.numDistinctMinimizers,
                  want_stats.numDistinctMinimizers);
        EXPECT_EQ(got_stats.numLocations, want_stats.numLocations);
        EXPECT_EQ(got_stats.maxMinimizersPerBucket,
                  want_stats.maxMinimizersPerBucket);
        EXPECT_EQ(got_stats.maxLocationsPerMinimizer,
                  want_stats.maxLocationsPerMinimizer);
        EXPECT_EQ(got_stats.totalBytes(), want_stats.totalBytes());

        // Every indexed minimizer answers identically through the
        // loaded tables (frequency = list size, full location lists).
        for (const auto &entry :
             io::PackCodec::minimizerTable(want_idx)) {
            const auto got_locs = got_idx.locations(entry.hash);
            const auto want_locs = want_idx.locations(entry.hash);
            ASSERT_EQ(got_locs.size(), want_locs.size());
            for (size_t i = 0; i < want_locs.size(); ++i)
                EXPECT_EQ(got_locs[i], want_locs[i]);
        }
    }
}

TEST_F(PackTest, MappingOutputBitIdenticalFreshVsLoaded)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(21)));
    const auto donor = datasets[0].donor;
    const auto fresh = makeReference(datasets);
    fresh.save(path("ref.segram"));
    const auto loaded =
        core::PreprocessedReference::load(path("ref.segram"));

    Rng rng(99);
    const auto reads = sim::simulateReads(
        donor, {150, 40, sim::ErrorProfile::illumina(0.02)}, rng);
    std::vector<std::string_view> views;
    for (const auto &read : reads)
        views.push_back(read.seq);

    core::SegramConfig config;
    config.tryReverseComplement = true;

    for (const int threads : {1, 3}) {
        core::ShardedBatchConfig batch;
        batch.threads = threads;
        core::PipelineStats fresh_stats, loaded_stats;
        const auto fresh_results =
            core::ShardedBatchMapper(fresh, config, batch)
                .mapBatch(std::span<const std::string_view>(views),
                          &fresh_stats);
        const auto loaded_results =
            core::ShardedBatchMapper(loaded, config, batch)
                .mapBatch(std::span<const std::string_view>(views),
                          &loaded_stats);
        ASSERT_EQ(fresh_results.size(), loaded_results.size());
        for (size_t i = 0; i < fresh_results.size(); ++i) {
            EXPECT_EQ(fresh_results[i].mapped, loaded_results[i].mapped);
            EXPECT_EQ(fresh_results[i].linearStart,
                      loaded_results[i].linearStart);
            EXPECT_EQ(fresh_results[i].editDistance,
                      loaded_results[i].editDistance);
            EXPECT_EQ(fresh_results[i].reverseComplemented,
                      loaded_results[i].reverseComplemented);
            EXPECT_EQ(fresh_results[i].chromosome,
                      loaded_results[i].chromosome);
            EXPECT_EQ(fresh_results[i].cigar.toString(),
                      loaded_results[i].cigar.toString());
        }
        EXPECT_EQ(fresh_stats.seeding.seedsFetched,
                  loaded_stats.seeding.seedsFetched);
        EXPECT_EQ(fresh_stats.regionsAligned,
                  loaded_stats.regionsAligned);
    }
}

TEST_F(PackTest, FreshAndPackLoadedReferenceScoreIdenticalAccuracy)
{
    // The pack/eval interop contract: the accuracy harness must be
    // unable to tell whether the mapper ran over owned tables or over
    // a mmap-loaded pack — identical sensitivity/precision counters,
    // not just "both high".
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(61)));
    const auto donor = datasets[0].donor;
    const auto fresh = makeReference(datasets);
    fresh.save(path("ref.segram"));
    const auto loaded =
        core::PreprocessedReference::load(path("ref.segram"));

    Rng rng(62);
    sim::ReadSimConfig read_config{150, 40,
                                   sim::ErrorProfile::illumina(0.02)};
    read_config.revCompProbability = 0.3;
    const auto reads = sim::simulateReads(donor, read_config, rng);

    std::vector<eval::TruthRecord> truth;
    const std::string profile = sim::profileLabel(read_config.errors);
    for (size_t i = 0; i < reads.size(); ++i) {
        truth.push_back({"read" + std::to_string(i), "chr1",
                         reads[i].donorStart,
                         reads[i].truthLinearStart,
                         reads[i].reverseComplemented ? '-' : '+',
                         static_cast<uint32_t>(reads[i].seq.size()),
                         reads[i].plantedErrors, profile});
    }
    const eval::AccuracyEvaluator evaluator(std::move(truth));

    core::SegramConfig config;
    config.tryReverseComplement = true;
    const auto score = [&](const core::PreprocessedReference &ref,
                           const char *mapper_name) {
        const core::ShardedBatchMapper mapper(ref, config);
        std::vector<std::string_view> views;
        for (const auto &read : reads)
            views.push_back(read.seq);
        const auto results =
            mapper.mapBatch(std::span<const std::string_view>(views));
        std::vector<io::PafRecord> mapped;
        for (size_t i = 0; i < reads.size(); ++i) {
            const auto &result = results[i];
            if (!result.mapped)
                continue;
            mapped.push_back(io::makePafRecord(
                "read" + std::to_string(i), reads[i].seq.size(),
                result.reverseComplemented ? '-' : '+',
                result.chromosome, ref.graph(0).totalSeqLen(),
                result.linearStart, result.cigar));
        }
        return evaluator.evaluate(mapper_name, mapped);
    };

    const auto fresh_report = score(fresh, "fresh");
    const auto loaded_report = score(loaded, "pack-loaded");
    // Not just close — identical, counter for counter.
    EXPECT_EQ(fresh_report.overall, loaded_report.overall);
    ASSERT_EQ(fresh_report.perProfile.size(),
              loaded_report.perProfile.size());
    for (const auto &[name, counts] : fresh_report.perProfile) {
        ASSERT_TRUE(loaded_report.perProfile.contains(name));
        EXPECT_EQ(counts, loaded_report.perProfile.at(name));
    }
    // And the harness measured something real: most reads placed.
    EXPECT_GE(fresh_report.overall.sensitivity(), 0.9);
}

TEST_F(PackTest, LoadedReferenceSurvivesMove)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(31)));
    makeReference(datasets).save(path("ref.segram"));

    auto loaded = core::PreprocessedReference::load(path("ref.segram"));
    const std::string before = loaded.graph(0).nodeSeq(0);
    const core::PreprocessedReference moved = std::move(loaded);
    EXPECT_EQ(moved.graph(0).nodeSeq(0), before);
}

TEST_F(PackTest, ResaveOfLoadedPackIsByteIdentical)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(41)));
    makeReference(datasets).save(path("a.segram"));
    core::PreprocessedReference::load(path("a.segram"))
        .save(path("b.segram"));
    EXPECT_EQ(readAll(path("a.segram")), readAll(path("b.segram")));
}

TEST_F(PackTest, IsPackFileSniffsMagic)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(51)));
    makeReference(datasets).save(path("ref.segram"));
    EXPECT_TRUE(io::isPackFile(path("ref.segram")));

    writeAll(path("not_a_pack"), std::vector<std::byte>(128));
    EXPECT_FALSE(io::isPackFile(path("not_a_pack")));
    EXPECT_FALSE(io::isPackFile(path("missing_file")));
}

class PackRejectionTest : public PackTest
{
  protected:
    void
    SetUp() override
    {
        PackTest::SetUp();
        std::vector<sim::Dataset> datasets;
        datasets.push_back(sim::makeDataset(smallConfig(61)));
        makeReference(datasets).save(path("ref.segram"));
        bytes_ = readAll(path("ref.segram"));
    }

    /** Writes the (mutated) bytes and expects the loader to throw. */
    void
    expectRejected(const char *what)
    {
        writeAll(path("bad.segram"), bytes_);
        try {
            core::PreprocessedReference::load(path("bad.segram"));
            FAIL() << "loader accepted a malformed pack (" << what << ")";
        } catch (const InputError &error) {
            EXPECT_NE(std::string(error.what()).find(what),
                      std::string::npos)
                << "unexpected message: " << error.what();
        }
    }

    io::PackHeader
    header() const
    {
        io::PackHeader header;
        std::memcpy(&header, bytes_.data(), sizeof(header));
        return header;
    }

    void
    putHeader(const io::PackHeader &header)
    {
        std::memcpy(bytes_.data(), &header, sizeof(header));
    }

    std::vector<io::PackSectionEntry>
    directory() const
    {
        const auto head = header();
        std::vector<io::PackSectionEntry> entries(head.sectionCount);
        std::memcpy(entries.data(), bytes_.data() + sizeof(io::PackHeader),
                    entries.size() * sizeof(io::PackSectionEntry));
        return entries;
    }

    /** Rewrites the directory and re-seals its checksum in the header. */
    void
    putDirectory(const std::vector<io::PackSectionEntry> &entries)
    {
        std::memcpy(bytes_.data() + sizeof(io::PackHeader), entries.data(),
                    entries.size() * sizeof(io::PackSectionEntry));
        auto head = header();
        head.directoryChecksum = io::packChecksum(
            {bytes_.data() + sizeof(io::PackHeader),
             entries.size() * sizeof(io::PackSectionEntry)});
        putHeader(head);
    }

    /** Recomputes one section's payload checksum after a targeted edit. */
    void
    resealSection(size_t index)
    {
        auto entries = directory();
        entries[index].checksum = io::packChecksum(
            {bytes_.data() + entries[index].offset,
             static_cast<size_t>(entries[index].bytes)});
        putDirectory(entries);
    }

    std::vector<std::byte> bytes_;
};

TEST_F(PackRejectionTest, RejectsTruncatedFile)
{
    const std::vector<std::byte> full = bytes_;
    // Inside the header, inside the directory, and inside payloads.
    for (const size_t keep :
         {size_t{0}, size_t{17}, size_t{100}, full.size() / 2,
          full.size() - 1}) {
        bytes_.assign(full.begin(), full.begin() + keep);
        writeAll(path("bad.segram"), bytes_);
        EXPECT_THROW(
            core::PreprocessedReference::load(path("bad.segram")),
            InputError)
            << "accepted a pack truncated to " << keep << " bytes";
    }
}

TEST_F(PackRejectionTest, RejectsBadMagic)
{
    bytes_[0] = std::byte{'X'};
    expectRejected("bad magic");
}

TEST_F(PackRejectionTest, RejectsVersionMismatch)
{
    auto head = header();
    head.version = io::kPackVersion + 7;
    putHeader(head);
    expectRejected("version");
}

TEST_F(PackRejectionTest, RejectsCorruptedSectionPayload)
{
    // Flip one byte in the middle of the first payload section.
    const auto entries = directory();
    const auto &target = entries.front();
    ASSERT_GT(target.bytes, 0u);
    const size_t victim = target.offset + target.bytes / 2;
    bytes_[victim] ^= std::byte{0x40};
    expectRejected("checksum mismatch");
}

TEST_F(PackRejectionTest, RejectsSectionBeyondEndOfFile)
{
    auto entries = directory();
    entries.back().offset =
        (bytes_.size() + 2 * io::kPackAlign) & ~(io::kPackAlign - 1);
    putDirectory(entries);
    expectRejected("out of file bounds");
}

TEST_F(PackRejectionTest, RejectsOutOfBoundsNodeRecord)
{
    // Corrupt a node's seqStart to point far outside the character
    // table, then re-seal every checksum: only the cross-table bounds
    // validation can catch this one.
    auto entries = directory();
    size_t node_section = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].kind ==
            static_cast<uint32_t>(io::PackSectionKind::NodeTable))
            node_section = i;
    }
    ASSERT_LT(node_section, entries.size());
    const uint64_t evil = ~uint64_t{0} / 2;
    std::memcpy(bytes_.data() + entries[node_section].offset, &evil,
                sizeof(evil)); // NodeRecord.seqStart of node 0
    resealSection(node_section);
    expectRejected("node sequence range");
}

TEST_F(PackRejectionTest, RejectsNonContiguousNodeTable)
{
    // Shift node 0's linearOffset away from its seqStart: monotone,
    // in-bounds, but it breaks the contiguity invariant that
    // charAtLinear/nodeAtLinear rely on.
    auto entries = directory();
    size_t node_section = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].kind ==
            static_cast<uint32_t>(io::PackSectionKind::NodeTable))
            node_section = i;
    }
    ASSERT_LT(node_section, entries.size());
    const uint64_t evil_offset = 1;
    std::memcpy(bytes_.data() + entries[node_section].offset + 8,
                &evil_offset,
                sizeof(evil_offset)); // NodeRecord.linearOffset of node 0
    resealSection(node_section);
    expectRejected("not contiguous");
}

TEST_F(PackRejectionTest, RejectsOverflowingBaseCount)
{
    // numBases near 2^64 must not wrap the expected character-table
    // size to zero and sneak past the section size check.
    auto entries = directory();
    size_t meta_section = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].kind ==
            static_cast<uint32_t>(io::PackSectionKind::ChromMeta))
            meta_section = i;
    }
    ASSERT_LT(meta_section, entries.size());
    const uint64_t evil_bases = ~uint64_t{0};
    std::memcpy(bytes_.data() + entries[meta_section].offset + 32,
                &evil_bases, sizeof(evil_bases)); // PackChromMeta.numBases
    resealSection(meta_section);
    expectRejected("size disagrees");
}

TEST_F(PackRejectionTest, RejectsOutOfBoundsSeedLocation)
{
    auto entries = directory();
    size_t loc_section = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].kind ==
            static_cast<uint32_t>(io::PackSectionKind::LocationTable))
            loc_section = i;
    }
    ASSERT_LT(loc_section, entries.size());
    ASSERT_GT(entries[loc_section].bytes, 0u);
    const uint32_t evil_node = 0xfffffff0u;
    std::memcpy(bytes_.data() + entries[loc_section].offset, &evil_node,
                sizeof(evil_node)); // SeedLocation.node of entry 0
    resealSection(loc_section);
    expectRejected("seed location");
}

} // namespace
