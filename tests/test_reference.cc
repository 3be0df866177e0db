/**
 * @file
 * Parallel reference build (PreprocessedReference::buildFromFiles,
 * buildFromGfa, buildFromRecords): chromosomes are built on a thread
 * pool, longest first, yet the reference, its per-chromosome build
 * report and the saved `.segram` pack are identical at every thread
 * count, and a failing build names the same chromosome at every
 * thread count.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/reference.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/io/gfa.h"
#include "src/io/vcf.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace
{

using namespace segram;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/**
 * A 4-chromosome reference written as FASTA+VCF and as a GFA with one
 * component per chromosome. The records are written smallest first,
 * so the longest-first build order is the reverse of the output order.
 */
class ParallelBuildTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("segram_reference_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);

        sim::MultiDatasetConfig config;
        config.genome.numChromosomes = 4;
        config.genome.totalLength = 200'000;
        config.seed = 7;
        auto dataset = sim::makeMultiDataset(config);
        std::reverse(dataset.begin(), dataset.end());

        std::vector<io::FastaRecord> fasta;
        std::vector<io::VcfRecord> vcf;
        io::GfaDocument gfa;
        for (const auto &entry : dataset) {
            names_.push_back(entry.name);
            fasta.push_back({entry.name, entry.reference});
            for (const auto &variant : entry.variants)
                if (variant.pos != 0) // position-0 indels cannot be padded
                    vcf.push_back(graph::toVcfRecord(variant, entry.name,
                                                     entry.reference));
            // Segment names are prefixed so the components stay
            // disjoint, as `segram construct` writes them.
            const auto part = entry.graph.toGfa(entry.name);
            const std::string prefix = entry.name + ".";
            for (const auto &segment : part.segments)
                gfa.segments.push_back({prefix + segment.name, segment.seq});
            for (const auto &link : part.links)
                gfa.links.push_back(
                    {prefix + link.from, prefix + link.to});
            for (const auto &path : part.paths) {
                io::GfaPath prefixed{path.name, {}};
                for (const auto &step : path.steps)
                    prefixed.steps.push_back(prefix + step);
                gfa.paths.push_back(std::move(prefixed));
            }
        }
        io::writeFastaFile(path("ref.fa"), fasta);
        io::writeVcfFile(path("ref.vcf"), vcf);
        io::writeGfaFile(path("ref.gfa"), gfa);
        config_.bucketBits = 12;
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /**
     * Builds through @p build at 1/2/4 threads and the default count,
     * and requires byte-identical packs and identical build reports.
     */
    template <typename Build>
    void
    expectIdenticalAtEveryThreadCount(Build build)
    {
        std::string first_pack;
        std::vector<core::ChromosomeBuildInfo> first_info;
        for (const int threads : {1, 2, 4, 0}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            core::BuildReport report;
            const auto reference = build(&report, threads);
            const auto &info = report.chromosomes;
            EXPECT_EQ(report.workers,
                      threads > 0 ? threads
                                  : util::ThreadPool::defaultThreads());
            ASSERT_EQ(reference.numChromosomes(), names_.size());
            ASSERT_EQ(info.size(), names_.size());
            for (size_t i = 0; i < names_.size(); ++i) {
                EXPECT_EQ(reference.name(i), names_[i]);
                EXPECT_EQ(info[i].name, names_[i]);
            }
            reference.save(path("ref.segram"));
            const std::string pack = slurp(path("ref.segram"));
            ASSERT_FALSE(pack.empty());
            if (first_pack.empty()) {
                first_pack = pack;
                first_info = info;
                continue;
            }
            EXPECT_TRUE(pack == first_pack) << "pack bytes differ";
            EXPECT_EQ(info, first_info);
        }
    }

    std::filesystem::path dir_;
    std::vector<std::string> names_;
    index::IndexConfig config_;
};

TEST_F(ParallelBuildTest, FilesRouteIsIdenticalAtEveryThreadCount)
{
    expectIdenticalAtEveryThreadCount(
        [&](core::BuildReport *report, int threads) {
            return core::PreprocessedReference::buildFromFiles(
                path("ref.fa"), path("ref.vcf"), config_, report, threads);
        });
}

TEST_F(ParallelBuildTest, GfaRouteIsIdenticalAtEveryThreadCount)
{
    expectIdenticalAtEveryThreadCount(
        [&](core::BuildReport *report, int threads) {
            return core::PreprocessedReference::buildFromGfa(
                path("ref.gfa"), config_, report, threads);
        });
}

TEST(ParallelBuild, ReportsTheLowestIndexFailureAtEveryThreadCount)
{
    // chr2 and chr4 carry a base the 2-bit character table cannot
    // hold. chr4 is the longest, so it is built (and fails) first; the
    // report must still name chr2, the lower index.
    Rng rng(11);
    const auto random_dna = [&rng](size_t length) {
        std::string seq(length, 'A');
        for (char &base : seq)
            base = "ACGT"[rng.nextBelow(4)];
        return seq;
    };
    std::vector<io::FastaRecord> records = {{"chr1", random_dna(3000)},
                                            {"chr2", random_dna(1000)},
                                            {"chr3", random_dna(4000)},
                                            {"chr4", random_dna(6000)}};
    records[1].seq[500] = 'N';
    records[3].seq[100] = 'N';

    for (const int threads : {1, 2, 4}) {
        for (int trial = 0; trial < 3; ++trial) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            core::BuildReport report;
            try {
                core::PreprocessedReference::buildFromRecords(
                    records, {}, {}, &report, threads);
                ADD_FAILURE() << "a build with invalid bases succeeded";
            } catch (const InputError &error) {
                const std::string message = error.what();
                EXPECT_EQ(message.rfind("chromosome 'chr2': ", 0), 0u)
                    << message;
                EXPECT_NE(message.find("invalid DNA base"),
                          std::string::npos)
                    << message;
            }
            EXPECT_TRUE(report.chromosomes.empty());
        }
    }
}

} // namespace
