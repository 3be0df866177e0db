/**
 * @file
 * The end-to-end bench's workloads and their seeded inputs. Each
 * workload fixes a reference shape, a read profile and how the reads
 * reach the mapper; `generate` turns (workload, seed) into the files a
 * user would hand to `segram` — FASTA + VCF, FASTQ, and the simulate
 * truth sidecar — through the library's simulators. The same seed
 * always yields byte-identical files.
 */

#ifndef SEGRAM_BENCH_E2E_INPUTS_H
#define SEGRAM_BENCH_E2E_INPUTS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "e2e/stats.h"
#include "src/eval/accuracy.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/io/fastq.h"
#include "src/io/vcf.h"
#include "src/serve/protocol.h"
#include "src/sim/dataset.h"
#include "src/util/rng.h"

namespace segram::e2e
{

/** One workload: reference, reads, mapping knobs and traffic shape. */
struct WorkloadSpec
{
    std::string name;
    /** Reads reach `segram serve` as a request stream instead of a
     *  FASTQ handed to `segram map`. */
    bool serve = false;

    uint32_t chromosomes = 1;
    uint64_t genomeLen = 4'000'000;
    double repeatFraction = 0.0;
    uint32_t repeatMotifLen = sim::GenomeConfig().repeatMotifLen;
    double tandemFraction = 0.0;
    /** Plant 50-500 bp structural variants (sim::VariantConfig). */
    bool structuralVariants = true;

    uint32_t readLen = 150;
    sim::ErrorProfile profile = sim::ErrorProfile::illumina(0.01);
    /** Map workloads: reads are cut into `slices` FASTQ files of
     *  sliceReads reads; each `--threads 4` run maps one slice and the
     *  `--threads 1` run after it the slice's first prefixReads. */
    uint32_t slices = 1;
    uint32_t sliceReads = 0;
    uint32_t prefixReads = 0;
    /** Map workloads: single-read MAP requests of the serve probe. */
    uint32_t probeRequests = 0;

    double errorRate = 0.05; ///< the `E` argument / --error-rate
    uint32_t maxOcc = 0;     ///< `segram map --max-occ`; 0 = uncapped

    // Serve traffic: requests of readsPerRequest reads. Two closed
    // loops (one connection, then four) share the run's seconds left
    // after two open-loop Poisson phases at fixed absolute rates.
    uint32_t readsPerRequest = 8;
    double closedOneShare = 0.4; ///< of the closed-loop seconds
    double lowRate = 0.0;  ///< requests/s
    double highRate = 0.0; ///< requests/s
    uint32_t lowRequests = 0;
    uint32_t highRequests = 0;

    double sensitivityFloor = 0.0;

    uint32_t
    totalReads() const
    {
        return serve ? (lowRequests + highRequests) * readsPerRequest
                     : slices * sliceReads;
    }
};

/** The four workloads at full size, or at smoke size (seconds). */
inline std::vector<WorkloadSpec>
workloadSpecs(bool smoke)
{
    // Slices are sized so that one `--threads 4` run and one
    // `--threads 1` run each take about half a second on a 4-core
    // host: a run then holds a dozen rounds, and its medians ride out
    // other tenants' bursts.
    const uint32_t scale = smoke ? 8 : 1;
    std::vector<WorkloadSpec> specs;

    WorkloadSpec short_reads;
    short_reads.name = "short_reads";
    short_reads.genomeLen = smoke ? 500'000 : 4'000'000;
    short_reads.slices = 8;
    short_reads.sliceReads = 12'000 / scale;
    short_reads.prefixReads = 3'500 / scale;
    short_reads.probeRequests = 1'000 / scale;
    short_reads.sensitivityFloor = 0.98;
    specs.push_back(short_reads);

    // Long reads across a 50-500 bp structural variant go unmapped and
    // cost ~25x a mapped read: with SVs the run time would count them,
    // not measure alignment.
    WorkloadSpec long_reads;
    long_reads.name = "long_reads";
    long_reads.genomeLen = smoke ? 500'000 : 4'000'000;
    long_reads.structuralVariants = false;
    long_reads.readLen = 5'000;
    long_reads.profile = sim::ErrorProfile::pacbio(0.05);
    long_reads.slices = 8;
    long_reads.sliceReads = 768 / scale;
    long_reads.prefixReads = 224 / scale;
    long_reads.probeRequests = 48 / scale;
    long_reads.sensitivityFloor = 0.98;
    specs.push_back(long_reads);

    // 100 bp repeat families put about one copy in every read, so
    // every read meets over-full occurrence lists; with the 500 bp
    // default a third of the reads carry all the cost.
    WorkloadSpec repeats;
    repeats.name = "repeat_chroms";
    repeats.chromosomes = 8;
    repeats.genomeLen = smoke ? 2'000'000 : 24'000'000;
    repeats.repeatFraction = 0.10;
    repeats.repeatMotifLen = 100;
    repeats.tandemFraction = 0.02;
    repeats.readLen = 1'000;
    repeats.profile = sim::ErrorProfile::pacbio(0.10);
    repeats.slices = 16;
    repeats.sliceReads = 400 / scale;
    repeats.prefixReads = 100 / scale;
    repeats.probeRequests = 64 / scale;
    repeats.errorRate = 0.10;
    repeats.maxOcc = 8;
    repeats.sensitivityFloor = 0.97;
    specs.push_back(repeats);

    WorkloadSpec stream;
    stream.name = "serve_stream";
    stream.serve = true;
    stream.genomeLen = smoke ? 500'000 : 4'000'000;
    stream.lowRate = 200.0;
    stream.highRate = 350.0;
    stream.lowRequests = 600 / scale;
    stream.highRequests = 1'050 / scale;
    stream.sensitivityFloor = 0.98;
    specs.push_back(stream);
    return specs;
}

/** Files and in-memory copies of one workload's generated inputs. */
struct Inputs
{
    std::string fasta;
    std::string vcf;
    std::string reads; ///< FASTQ of every read
    std::string setup; ///< FASTQ of one 150 bp reference read
    std::vector<std::string> slices;   ///< FASTQ per slice
    std::vector<std::string> prefixes; ///< FASTQ per slice prefix
    std::vector<serve::ReadRecord> records; ///< every read, file order
    std::vector<eval::TruthRecord> truth;
    uint64_t fnv = 0; ///< FNV-1a over the FASTA, VCF and FASTQ bytes
};

namespace detail
{

inline void
writeReads(const std::string &path,
           const std::vector<serve::ReadRecord> &records, size_t first,
           size_t count)
{
    std::vector<io::FastqRecord> fastq;
    fastq.reserve(count);
    for (size_t i = first; i < first + count; ++i)
        fastq.push_back({records[i].name, records[i].seq,
                         std::string(records[i].seq.size(), 'I')});
    io::writeFastqFile(path, fastq);
}

} // namespace detail

/**
 * Generates @p spec's inputs for @p seed into @p dir. Generation is
 * not part of any measurement. Reads are drawn per chromosome in
 * proportion to its length, a quarter from the minus strand, then
 * shuffled so every slice and prefix samples the whole genome.
 */
inline Inputs
generate(const WorkloadSpec &spec, uint64_t seed, const std::string &dir)
{
    Rng seeder(seed ^ fnv64(spec.name));
    sim::MultiDatasetConfig config;
    config.genome.numChromosomes = spec.chromosomes;
    config.genome.totalLength = spec.genomeLen;
    config.genome.repeats.repeatFraction = spec.repeatFraction;
    config.genome.repeats.repeatMotifLen = spec.repeatMotifLen;
    config.genome.repeats.tandemFraction = spec.tandemFraction;
    if (!spec.structuralVariants) {
        config.variants.snpFraction += config.variants.svFraction;
        config.variants.svFraction = 0.0;
    }
    config.seed = seeder.nextU64();
    const auto dataset = sim::makeMultiDataset(config);

    Inputs inputs;
    inputs.fasta = dir + "/ref.fa";
    inputs.vcf = dir + "/ref.vcf";
    inputs.reads = dir + "/reads.fq";
    inputs.setup = dir + "/setup.fq";

    std::vector<io::FastaRecord> fasta;
    std::vector<io::VcfRecord> vcf;
    uint64_t total_bases = 0;
    for (const auto &entry : dataset) {
        fasta.push_back({entry.name, entry.reference});
        total_bases += entry.reference.size();
        for (const auto &variant : entry.variants)
            if (variant.pos != 0) // position-0 indels cannot be padded
                vcf.push_back(graph::toVcfRecord(variant, entry.name,
                                                 entry.reference));
    }
    io::writeFastaFile(inputs.fasta, fasta);
    io::writeVcfFile(inputs.vcf, vcf);

    Rng rng(seeder.nextU64());
    sim::ReadSimConfig read_config{spec.readLen, 0, spec.profile};
    read_config.revCompProbability = 0.25;
    const std::string profile = sim::profileLabel(spec.profile);
    // chr1, the largest, absorbs the rounding remainder.
    const uint32_t total = spec.totalReads();
    std::vector<uint32_t> counts(dataset.size());
    uint32_t assigned = 0;
    for (size_t c = 1; c < dataset.size(); ++c) {
        counts[c] = static_cast<uint32_t>(static_cast<uint64_t>(total) *
                                          dataset[c].reference.size() /
                                          total_bases);
        assigned += counts[c];
    }
    counts[0] = total - assigned;
    struct Planted
    {
        sim::SimRead read;
        size_t chromosome;
    };
    std::vector<Planted> planted;
    for (size_t c = 0; c < dataset.size(); ++c) {
        if (counts[c] == 0)
            continue;
        read_config.numReads = counts[c];
        for (auto &read :
             sim::simulateReads(dataset[c].donor, read_config, rng))
            planted.push_back({std::move(read), c});
    }
    for (size_t i = planted.size(); i > 1; --i)
        std::swap(planted[i - 1], planted[rng.nextBelow(i)]);

    for (size_t i = 0; i < planted.size(); ++i) {
        const auto &[read, chromosome] = planted[i];
        std::string name = "r" + std::to_string(i);
        inputs.truth.push_back({name, dataset[chromosome].name,
                                read.donorStart, read.truthLinearStart,
                                read.reverseComplemented ? '-' : '+',
                                static_cast<uint32_t>(read.seq.size()),
                                read.plantedErrors, profile});
        inputs.records.push_back({std::move(name), read.seq});
    }
    detail::writeReads(inputs.reads, inputs.records, 0,
                       inputs.records.size());
    for (uint32_t s = 0; s < (spec.serve ? 0 : spec.slices); ++s) {
        inputs.slices.push_back(dir + "/slice" + std::to_string(s) + ".fq");
        inputs.prefixes.push_back(dir + "/slice" + std::to_string(s) +
                                  ".prefix.fq");
        detail::writeReads(inputs.slices.back(), inputs.records,
                           size_t{s} * spec.sliceReads, spec.sliceReads);
        detail::writeReads(inputs.prefixes.back(), inputs.records,
                           size_t{s} * spec.sliceReads, spec.prefixReads);
    }
    const std::string &chr1 = dataset.front().reference;
    io::writeFastqFile(inputs.setup,
                       {{"setup", chr1.substr(chr1.size() / 2, 150),
                         std::string(150, 'I')}});
    inputs.fnv = fnv64(slurp(inputs.reads),
                       fnv64(slurp(inputs.vcf), fnv64(slurp(inputs.fasta))));
    return inputs;
}

} // namespace segram::e2e

#endif // SEGRAM_BENCH_E2E_INPUTS_H
