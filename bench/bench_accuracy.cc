/**
 * @file
 * Accuracy gate bench: the software measurement behind the paper's
 * accuracy-parity claim (Section 10 validates SeGraM's sensitivity
 * against GraphAligner/vg on simulated read sets with known origins).
 *
 * Builds a synthetic variant graph, plants read sets with ground
 * truth across the paper's error profiles (Illumina 1%, PacBio 5%/10%,
 * ONT 5%), maps them with the full SeGraM pipeline (both strands
 * exercised via reverse-complemented reads), and scores placement with
 * eval::AccuracyEvaluator.
 *
 * GATE: sensitivity at the PacBio 5% profile must be >= 95%, and no
 * profile may fall below 90%. Exit code 1 on violation, so CI turns an
 * accuracy regression into a red build, not a silent number drift.
 *
 * `--quick` shrinks read counts for sanitizer CI runs.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/segram.h"
#include "src/eval/accuracy.h"
#include "src/io/paf.h"
#include "src/sim/dataset.h"

namespace
{

using namespace segram;

struct ProfileRow
{
    std::string name;
    eval::AccuracyCounts counts;
    double mapSec = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const bool quick =
        argc > 1 && std::strcmp(argv[1], "--quick") == 0;

    // One genome, one graph, one mapper configuration shared by every
    // read set — only the error profile varies, as in Section 10.
    auto dataset_config = bench::datasetConfig(quick ? 200'000 : 500'000);
    dataset_config.index.bucketBits = 14;
    const auto dataset = sim::makeDataset(dataset_config);

    // The product pipeline at its default expected error rate.
    const core::SegramMapper mapper(dataset.graph, dataset.index,
                                    core::SegramConfig::product());

    struct ReadSpec
    {
        uint32_t readLen;
        uint32_t numReads;
        sim::ErrorProfile profile;
    };
    const uint32_t short_reads = quick ? 60 : 300;
    const uint32_t long_reads = quick ? 12 : 60;
    const std::vector<ReadSpec> specs = {
        {150, short_reads, sim::ErrorProfile::illumina(0.01)},
        {2'000, long_reads, sim::ErrorProfile::pacbio(0.05)},
        {2'000, long_reads, sim::ErrorProfile::pacbio(0.10)},
        {2'000, long_reads, sim::ErrorProfile::ont(0.05)},
    };

    bench::printHeader("accuracy: sensitivity/precision vs ground truth");
    std::printf("%-14s %8s %8s %8s %12s %12s %10s\n", "profile", "reads",
                "mapped", "correct", "sensitivity", "precision",
                "reads/s");

    std::vector<ProfileRow> rows;
    uint64_t read_id = 0;
    for (size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
        const auto &spec = specs[spec_idx];
        // Seeded per spec index so every profile samples independent
        // read positions and error sites.
        Rng rng(20'260'730 + 1000 * spec_idx);
        sim::ReadSimConfig read_config{spec.readLen, spec.numReads,
                                       spec.profile};
        read_config.revCompProbability = 0.3;
        const auto reads =
            sim::simulateReads(dataset.donor, read_config, rng);

        const std::string label = sim::profileLabel(spec.profile);
        std::vector<eval::TruthRecord> truth;
        std::vector<io::PafRecord> mapped;
        double map_sec = 0.0;
        for (const auto &read : reads) {
            // Built with += : GCC 12 -O2 misfires -Wrestrict on
            // `"r" + std::to_string(...)` (GCC PR105329).
            std::string name = "r";
            name += std::to_string(read_id++);
            truth.push_back({name, "chr1", read.donorStart,
                             read.truthLinearStart,
                             read.reverseComplemented ? '-' : '+',
                             static_cast<uint32_t>(read.seq.size()),
                             read.plantedErrors, label});
            core::MapResult result;
            map_sec += bench::timeSec(
                [&] { result = mapper.mapRead(read.seq); });
            if (!result.mapped)
                continue;
            mapped.push_back(io::makePafRecord(
                name, read.seq.size(),
                result.reverseComplemented ? '-' : '+', "chr1",
                dataset.graph.totalSeqLen(), result.linearStart,
                result.cigar));
        }

        const eval::AccuracyEvaluator evaluator(std::move(truth));
        const auto report = evaluator.evaluate("segram", mapped);
        rows.push_back({label, report.overall, map_sec});
        std::printf("%-14s %8llu %8llu %8llu %11.4f%% %11.4f%% %10.1f\n",
                    label.c_str(),
                    static_cast<unsigned long long>(
                        report.overall.truthReads),
                    static_cast<unsigned long long>(
                        report.overall.mappedReads),
                    static_cast<unsigned long long>(
                        report.overall.correctReads),
                    100.0 * report.overall.sensitivity(),
                    100.0 * report.overall.precision(),
                    static_cast<double>(report.overall.truthReads) /
                        map_sec);
    }

    // The gate: paper-style accuracy parity. PacBio 5% is the headline
    // long-read dataset; everything else must clear 90%.
    bool pass = true;
    for (const auto &row : rows) {
        const double floor = row.name == "pacbio-5%" ? 0.95 : 0.90;
        if (row.counts.sensitivity() < floor) {
            std::printf("GATE FAIL: %s sensitivity %.4f < %.2f\n",
                        row.name.c_str(), row.counts.sensitivity(),
                        floor);
            pass = false;
        }
    }
    std::printf(pass ? "accuracy gate OK (pacbio-5%% >= 95%%, "
                       "all profiles >= 90%%)\n"
                     : "accuracy gate FAILED\n");
    return pass ? 0 : 1;
}
