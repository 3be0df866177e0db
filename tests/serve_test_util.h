/**
 * @file
 * Shared fixture of the serving tests (test_serve.cc and
 * test_serve_stress.cc): a one-chromosome pack in a per-process temp
 * directory, simulated reads, and the offline PAF every daemon reply
 * must equal byte for byte. Header-only, so each binary still runs
 * standalone (the stress test is a TSan target).
 */

#ifndef SEGRAM_TESTS_SERVE_TEST_UTIL_H
#define SEGRAM_TESTS_SERVE_TEST_UTIL_H

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/core/reference.h"
#include "src/core/sharded_mapper.h"
#include "src/serve/service.h"
#include "src/sim/dataset.h"
#include "src/sim/read_sim.h"
#include "src/util/rng.h"

namespace segram::serve
{

/** Subclasses call makePack() from SetUp(); TearDown() cleans up. */
class ServeFixture : public ::testing::Test
{
  protected:
    /** A 20 kbp one-chromosome pack plus @p num_reads 120 bp reads. */
    void
    makePack(const std::string &dir_prefix, uint64_t genome_seed,
             uint64_t read_seed, uint32_t num_reads)
    {
        dir_ = std::filesystem::temp_directory_path() /
               (dir_prefix + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        sim::DatasetConfig dataset_config;
        dataset_config.genome.length = 20'000;
        dataset_config.index.bucketBits = 12;
        dataset_config.seed = genome_seed;
        dataset_ = std::make_unique<sim::Dataset>(
            sim::makeDataset(dataset_config));
        std::vector<core::PreprocessedChromosome> chromosomes;
        chromosomes.push_back({"chr1", dataset_->graph,
                               dataset_->index});
        core::PreprocessedReference(std::move(chromosomes))
            .save(packPath());

        Rng rng(read_seed);
        sim::ReadSimConfig read_config{
            120, num_reads, sim::ErrorProfile::illumina(0.02)};
        read_config.revCompProbability = 0.25;
        const auto simulated =
            sim::simulateReads(dataset_->donor, read_config, rng);
        for (size_t i = 0; i < simulated.size(); ++i) {
            // Built with += : GCC 12 -O2 misfires -Wrestrict on
            // `"r" + std::to_string(...)` (GCC PR105329).
            std::string name = "r";
            name += std::to_string(i);
            reads_.push_back({std::move(name), simulated[i].seq});
        }
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string packPath() const { return (dir_ / "ref.segram").string(); }
    std::string socketPath() const { return (dir_ / "sv.sock").string(); }

    /** The offline ground truth: the same pack mapped through the
     *  library driver and formatted by the same PafFormatter. */
    std::string
    offlinePaf(const ServiceConfig &config,
               const std::vector<ReadRecord> &reads) const
    {
        const auto reference =
            core::PreprocessedReference::load(packPath(), config.load);
        const core::ShardedBatchMapper mapper(reference, config.segram,
                                              config.batch);
        std::vector<std::string_view> seqs;
        for (const auto &read : reads)
            seqs.push_back(read.seq);
        const auto results = mapper.mapBatch(
            std::span<const std::string_view>(seqs));
        const core::PafFormatter formatter(reference);
        std::string paf;
        for (size_t i = 0; i < results.size(); ++i)
            formatter.format(paf, reads[i].name, reads[i].seq.size(),
                             results[i]);
        return paf;
    }

    std::filesystem::path dir_;
    std::unique_ptr<sim::Dataset> dataset_;
    std::vector<ReadRecord> reads_;
};

} // namespace segram::serve

#endif // SEGRAM_TESTS_SERVE_TEST_UTIL_H
