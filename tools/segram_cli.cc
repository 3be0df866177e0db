/**
 * @file
 * `segram` — the command-line front end of the library, covering the
 * whole paper pipeline on real files:
 *
 *   segram construct <ref.fa> <vars.vcf> <out.gfa>
 *       Pre-processing step 0.1: build the topologically sorted genome
 *       graph (one per FASTA record / chromosome) and write it as GFA
 *       — disjoint components with name-prefixed segments, plus one P
 *       line per chromosome walking its reference backbone, so the
 *       chromosome names and path coordinates survive a round trip
 *       through the interchange format.
 *
 *   segram index [--threads N] [--bucket-bits N] [--discard-top F]
 *                [--stats] (<ref.fa> <vars.vcf> | <graph.gfa>)
 *                <out.segram>
 *       Full pre-processing (Section 5): graph + minimizer index per
 *       chromosome, serialized as a `.segram` pack — raw mmap-able
 *       tables mirroring the paper's Fig. 5/Fig. 6 memory layout.
 *       The build runs on one pool of --threads workers (default:
 *       every hardware thread): the graphs one chromosome per worker,
 *       largest first, then each chromosome's index on the whole pool.
 *       The pack is byte-identical at every count.
 *       The graph source is either FASTA+VCF or an imported GFA
 *       (detected by content), e.g. a vg/minigraph-style pangenome or
 *       the output of `segram construct`. --discard-top sets the
 *       fraction of hottest minimizers the frequency filter ignores;
 *       --stats prints the per-chromosome table footprints plus the
 *       occurrence histogram (frequency deciles and hottest seeds)
 *       that drives --max-occ / --discard-top tuning.
 *
 *   segram map [--threads N] [--batch N] [--bucket-bits N]
 *              [--discard-top F] [--engine segram|graphaligner|vg]
 *              [--path-coords]
 *              (<ref.fa> <vars.vcf> | <graph.gfa> | <pack.segram>)
 *              <reads.fa|fq> [E]
 *       Full pipeline: obtain the pre-processed reference — by
 *       building it from FASTA+VCF, by importing a GFA graph, or by
 *       memory-mapping a `.segram` pack (all detected by content) —
 *       then stream the reads (FASTA or FASTQ) in batches through the
 *       multi-threaded ShardedBatchMapper (trying both strands) and
 *       print PAF to stdout. The stderr report splits pre-processing
 *       time from mapping time, so the build-once/map-forever win of
 *       packs is visible. E is the expected per-base error rate
 *       (default 0.10). --engine swaps the SeGraM pipeline for one of the CPU
 *       baseline mappers (Section 10), so all three can be compared
 *       with `segram eval`. --path-coords reports PAF target
 *       coordinates projected onto the reference path (chromosome
 *       coordinates) instead of the graph's concatenated offsets.
 *       Every engine runs on the work-stealing (read-chunk x shard)
 *       scheduler. --max-occ caps the per-minimizer occurrence list
 *       at query time (deterministic stratified subsampling) and
 *       --mem-budget M keeps at most ~M MiB of pack shards resident
 *       (LRU + madvise), both human-scale-reference knobs.
 *
 *   segram simulate [--chromosomes N] [--repeat-fraction F]
 *                   [--tandem-fraction F]
 *                   <out_prefix> <genome_len> <num_reads> <read_len> <err>
 *       Emit a synthetic dataset (<prefix>.fa, <prefix>.vcf,
 *       <prefix>.reads.fa, an identical <prefix>.reads.fq, and a
 *       <prefix>.truth.tsv ground-truth sidecar recording where each
 *       read was planted) for trying the commands above. With
 *       --chromosomes > 1 the genome is split into skew-length
 *       chromosomes sharing dispersed repeat families (plus tandem
 *       arrays under --tandem-fraction), reads sampled per chromosome
 *       proportional to length — the scale harness behind
 *       bench_scale.
 *
 *   segram eval [--threshold N] <truth.tsv> <[name=]out.paf>...
 *       Accuracy evaluation: join each PAF file against the simulate
 *       ground truth and report sensitivity/precision, overall and per
 *       error profile. TSV rows to stdout, human summary to stderr.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/baseline/mappers.h"
#include "src/core/engine.h"
#include "src/core/map_pipeline.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"
#include "src/graph/gfa_import.h"
#include "src/graph/graph_builder.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/util/bitops_simd.h"
#include "src/io/fastq.h"
#include "src/io/fastx.h"
#include "src/io/gfa.h"
#include "src/io/pack.h"
#include "src/io/paf.h"
#include "src/io/vcf.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace
{

using namespace segram;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Wall-clock split of one reference build. */
struct BuildTimes
{
    double readSec = 0;  ///< parsing the FASTA+VCF or the GFA
    double buildSec = 0; ///< graphs and indexes (GFA import included)
    core::BuildReport report; ///< workers and the index-stage split
};

/**
 * Builds the reference from FASTA+VCF — or, when @p vcf_path is
 * empty, from the GFA at @p source_path — on @p threads build workers,
 * logging one line per chromosome.
 */
core::PreprocessedReference
buildReference(const std::string &source_path, const std::string &vcf_path,
               int bucket_bits, double discard_top, int threads,
               BuildTimes *times = nullptr)
{
    index::IndexConfig config;
    config.bucketBits = bucket_bits;
    config.discardTopFraction = discard_top;
    core::BuildReport report;
    const std::vector<core::ChromosomeBuildInfo> &info = report.chromosomes;
    const bool from_gfa = vcf_path.empty();
    const auto start = std::chrono::steady_clock::now();
    double read_sec = 0;
    core::PreprocessedReference reference;
    if (from_gfa) {
        auto doc = io::readGfaFile(source_path);
        read_sec = secondsSince(start);
        reference = core::PreprocessedReference::buildFromGraphs(
            graph::importGfa(std::move(doc)), config, &report, threads);
    } else {
        const auto records = io::readFastaFile(source_path);
        const auto vcf = io::readVcfFile(vcf_path);
        read_sec = secondsSince(start);
        reference = core::PreprocessedReference::buildFromRecords(
            records, vcf, config, &report, threads);
    }
    if (times != nullptr)
        *times = {read_sec, secondsSince(start) - read_sec, report};
    for (size_t i = 0; i < reference.numChromosomes(); ++i) {
        const auto bases =
            static_cast<unsigned long long>(info[i].referenceBases);
        if (from_gfa) {
            std::fprintf(stderr,
                         "[segram] %s (imported GFA): %llu path bp, "
                         "%zu nodes, %zu edges\n",
                         info[i].name.c_str(), bases,
                         reference.graph(i).numNodes(),
                         reference.graph(i).numEdges());
        } else {
            std::fprintf(
                stderr,
                "[segram] %s: %llu bp, %llu variants (%llu dropped), "
                "%zu nodes, %zu edges\n",
                info[i].name.c_str(), bases,
                static_cast<unsigned long long>(info[i].variantsApplied),
                static_cast<unsigned long long>(info[i].variantsDropped),
                reference.graph(i).numNodes(),
                reference.graph(i).numEdges());
        }
    }
    return reference;
}

int
cmdConstruct(const std::string &fasta_path, const std::string &vcf_path,
             const std::string &gfa_path)
{
    const auto records = io::readFastaFile(fasta_path);
    const auto vcf = io::readVcfFile(vcf_path);
    // Multiple chromosomes are written as disjoint components with
    // name-prefixed segments.
    io::GfaDocument doc;
    const graph::VcfByChrom vcf_by_chrom(vcf);
    for (const auto &record : records) {
        uint64_t dropped = 0;
        const auto variants = graph::canonicalizeSet(
            vcf_by_chrom.records(record.name),
            record.seq.size(), &dropped);
        const auto graph = graph::buildGraph(record.seq, variants);
        std::fprintf(stderr,
                     "[segram] %s: %zu bp, %zu variants (%llu dropped), "
                     "%zu nodes, %zu edges\n",
                     record.name.c_str(), record.seq.size(),
                     variants.size(),
                     static_cast<unsigned long long>(dropped),
                     graph.numNodes(), graph.numEdges());
        // The per-chromosome P line keeps the chromosome name and its
        // reference-path coordinates importable; segment names are
        // prefixed so multi-chromosome documents stay collision-free.
        const auto part = graph.toGfa(record.name);
        for (const auto &segment : part.segments)
            doc.segments.push_back(
                {record.name + "." + segment.name, segment.seq});
        for (const auto &link : part.links)
            doc.links.push_back({record.name + "." + link.from,
                                 record.name + "." + link.to});
        for (const auto &path : part.paths) {
            io::GfaPath prefixed;
            prefixed.name = path.name;
            prefixed.steps.reserve(path.steps.size());
            for (const auto &step : path.steps)
                prefixed.steps.push_back(record.name + "." + step);
            doc.paths.push_back(std::move(prefixed));
        }
    }
    io::writeGfaFile(gfa_path, doc);
    std::fprintf(stderr,
                 "[segram] wrote %zu segments, %zu links, %zu paths "
                 "to %s\n",
                 doc.segments.size(), doc.links.size(), doc.paths.size(),
                 gfa_path.c_str());
    return 0;
}

/**
 * Prints the Fig. 5 graph-table and Fig. 7 index-level footprints of
 * one pre-processed chromosome (the `segram index --stats` report).
 */
void
printFootprint(const std::string &name, const graph::GenomeGraph &graph,
               const index::MinimizerIndex &index)
{
    const auto mb = [](uint64_t bytes) {
        return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    std::fprintf(stderr,
                 "[segram] %s graph tables (Fig. 5): node %.2f MiB, "
                 "char %.2f MiB, edge %.2f MiB, total %.2f MiB\n",
                 name.c_str(), mb(graph.nodeTableBytes()),
                 mb(graph.charTableBytes()), mb(graph.edgeTableBytes()),
                 mb(graph.totalBytes()));
    const auto &stats = index.stats();
    std::fprintf(
        stderr,
        "[segram] %s index levels (Fig. 7, 2^%d buckets): "
        "L1 %.2f MiB, L2 %.2f MiB (%llu minimizers), "
        "L3 %.2f MiB (%llu locations), total %.2f MiB\n",
        name.c_str(), index.bucketBits(), mb(stats.firstLevelBytes),
        mb(stats.secondLevelBytes),
        static_cast<unsigned long long>(stats.numDistinctMinimizers),
        mb(stats.thirdLevelBytes),
        static_cast<unsigned long long>(stats.numLocations),
        mb(stats.totalBytes()));
}

/**
 * Prints the occurrence histogram of one chromosome's index: frequency
 * deciles of the distinct minimizers, the hottest seeds, and the
 * computed frequency threshold — the data a user tunes --discard-top
 * and `segram map --max-occ` against.
 */
void
printOccurrences(const std::string &name,
                 const index::MinimizerIndex &index)
{
    const auto report = index.occurrenceReport();
    std::fprintf(
        stderr,
        "[segram] %s occurrence histogram: %llu distinct minimizers, "
        "%llu locations, freq threshold %u (--discard-top %g)\n",
        name.c_str(),
        static_cast<unsigned long long>(report.distinctMinimizers),
        static_cast<unsigned long long>(report.totalLocations),
        report.freqThreshold, index.discardTopFraction());
    for (size_t d = 0; d < report.deciles.size(); ++d) {
        const auto &decile = report.deciles[d];
        std::fprintf(stderr,
                     "[segram]   decile %3zu%%: %llu minimizers, "
                     "max freq %u, %llu locations\n",
                     (d + 1) * 10,
                     static_cast<unsigned long long>(decile.minimizers),
                     decile.maxFrequency,
                     static_cast<unsigned long long>(decile.locations));
    }
    for (size_t i = 0; i < report.topSeeds.size(); ++i) {
        std::fprintf(
            stderr,
            "[segram]   hot seed %zu: hash %016llx, %u occurrences\n",
            i + 1,
            static_cast<unsigned long long>(report.topSeeds[i].hash),
            report.topSeeds[i].frequency);
    }
}

int
cmdIndex(const std::string &graph_source, const std::string &vcf_path,
         const std::string &pack_path, int bucket_bits,
         double discard_top, int threads, bool print_stats)
{
    // An empty vcf_path selects the GFA import route (the caller
    // dispatched on content).
    BuildTimes times;
    const auto reference = buildReference(graph_source, vcf_path,
                                          bucket_bits, discard_top,
                                          threads, &times);
    const auto write_start = std::chrono::steady_clock::now();
    reference.save(pack_path);
    const double write_sec = secondsSince(write_start);
    if (print_stats) {
        for (size_t i = 0; i < reference.numChromosomes(); ++i) {
            printFootprint(reference.name(i), reference.graph(i),
                           reference.index(i));
            printOccurrences(reference.name(i), reference.index(i));
        }
    }
    const int workers = times.report.workers;
    std::fprintf(
        stderr,
        "[segram] wrote %s: %zu chromosome%s, %.2f MiB (read inputs "
        "%.2f s, build %.2f s on %d worker%s, write pack %.2f s)\n",
        pack_path.c_str(), reference.numChromosomes(),
        reference.numChromosomes() == 1 ? "" : "s",
        static_cast<double>(std::filesystem::file_size(pack_path)) /
            (1024.0 * 1024.0),
        times.readSec, times.buildSec, workers, workers == 1 ? "" : "s",
        write_sec);
    // Graphs is the build less its index stage: VCF canonicalization
    // and graph construction, or the GFA import.
    const index::IndexBuildTimes &split = times.report.index;
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    std::fprintf(stderr,
                 "[segram] build split: graphs %.3f s, hits %.3f s, "
                 "sort %.3f s, tables %.3f s; peak RSS %.1f MiB\n",
                 times.buildSec - split.hitsSec - split.sortSec -
                     split.tablesSec,
                 split.hitsSec, split.sortSec, split.tablesSec,
                 static_cast<double>(usage.ru_maxrss) / 1024.0);
    return 0;
}

/** Options of the map command, parsed in place; index, serve and
 *  client read their shared flags (--threads, --batch, ...) here. */
struct MapOptions
{
    /** FASTA+VCF mode: both set. Pack mode: packPath set. GFA mode:
     *  gfaPath set. */
    std::string fastaPath;
    std::string vcfPath;
    std::string packPath;
    std::string gfaPath;
    std::string readsPath;
    std::string engine = "segram";
    /** Expected error rate: map's positional E, serve's --error-rate. */
    double errorRate = seed::MinSeedConfig().errorRate;
    int threads = 1;
    size_t batchSize = 256;
    int bucketBits = 16;
    /** Build-time frequency filter of the fresh-build path (packs
     *  bake it in at index time, like --bucket-bits). */
    double discardTop = index::IndexConfig().discardTopFraction;
    bool printStats = false;
    /** Report PAF target coordinates in reference-path space. */
    bool pathCoords = false;

    // SeGraM pipeline knobs (rejected for the baseline engines, which
    // do not consume them — a silently ignored flag fakes behaviour),
    // defaulting to SegramConfig::product's values.
    uint32_t maxRegions = 0;     ///< 0 aligns every candidate region
    /** Early-exit fraction; 0 disables. */
    double earlyExit = core::SegramConfig::product().earlyExitFraction;
    bool chainFilter = false;    ///< enable seed chaining (Fig. 2 step 2)
    /** Chains kept when chaining is on. */
    int maxChains = core::SegramConfig().chain.maxChains;
    int hopLimit = graph::kDefaultHopLimit; ///< HopBits height; 0 = no limit
    uint32_t maxOcc = 0;         ///< occurrence cap; 0 = uncapped
    uint64_t memBudgetMb = 0;    ///< resident-shard budget; 0 = off
};

/** The product SegramConfig with the map command's knobs applied. */
core::SegramConfig
makeSegramConfig(const MapOptions &options)
{
    core::SegramConfig config =
        core::SegramConfig::product(options.errorRate);
    config.minseed.maxOccurrences = options.maxOcc;
    config.earlyExitFraction = options.earlyExit;
    config.maxRegions = options.maxRegions;
    config.enableChainFilter = options.chainFilter;
    config.chain.maxChains = options.maxChains;
    config.hopLimit = options.hopLimit;
    return config;
}

/**
 * Builds the map command's per-chromosome engines, in reference order:
 * the SeGraM pipeline, or one of the CPU baseline mappers
 * ("graphaligner", "vg") wrapped in a reverse-complement retry, so the
 * accuracy harness can compare them with SeGraM on identical inputs.
 */
std::vector<std::unique_ptr<core::MappingEngine>>
makeEngine(const core::PreprocessedReference &reference,
           const MapOptions &options)
{
    const std::string &engine_name = options.engine; // parseArgs checked it
    if (engine_name == "segram")
        return core::segramEngines(reference, makeSegramConfig(options));
    baseline::BaselineConfig config;
    config.errorRate = options.errorRate;
    std::vector<std::unique_ptr<core::MappingEngine>> engines;
    for (size_t c = 0; c < reference.numChromosomes(); ++c) {
        std::unique_ptr<core::MappingEngine> engine;
        if (engine_name == "graphaligner")
            engine = std::make_unique<baseline::GraphAlignerLike>(
                reference.graph(c), reference.index(c), config);
        else
            engine = std::make_unique<baseline::VgLike>(
                reference.graph(c), reference.index(c), config);
        // Real GraphAligner/vg map both strands; the RC retry keeps
        // the accuracy comparison honest on two-strand read sets.
        engines.push_back(
            std::make_unique<core::RcRetryEngine>(std::move(engine)));
    }
    return engines;
}

int
cmdMap(const MapOptions &options)
{
    // Phase 1 — pre-processing: mmap the pack, or rebuild from files.
    // Timed separately from mapping so the build-once/map-forever
    // split (and the win of packs) is visible in the report.
    const auto preprocess_start = std::chrono::steady_clock::now();
    const bool from_pack = !options.packPath.empty();
    const bool from_gfa = !options.gfaPath.empty();
    // Under a memory budget the pack is opened cold (no whole-file
    // prefetch, sections dropped after checksumming), so the resident
    // set starts near zero and the budget governs it from the first
    // batch on.
    io::PackLoadOptions load_options;
    load_options.coldLoad = options.memBudgetMb > 0;
    BuildTimes build_times;
    const core::PreprocessedReference reference =
        from_pack
            ? core::PreprocessedReference::load(options.packPath,
                                                load_options)
            : buildReference(from_gfa ? options.gfaPath
                                      : options.fastaPath,
                             options.vcfPath, options.bucketBits,
                             options.discardTop, options.threads,
                             &build_times);
    const double preprocess_sec = secondsSince(preprocess_start);

    const core::PafFormatter formatter(
        reference, options.pathCoords ? core::PafCoords::kPath
                                      : core::PafCoords::kConcatenated);
    // Every engine maps through the work-stealing (read-chunk x shard)
    // driver: shard-skew tolerant and memory-budget capable.
    core::ShardedBatchConfig batch_config;
    batch_config.threads = options.threads;
    batch_config.memBudgetBytes = options.memBudgetMb * 1024 * 1024;
    const core::ShardedBatchMapper mapper(
        reference, makeEngine(reference, options), batch_config);
    const std::string_view engine_name = mapper.engineName();
    const int threads = mapper.threads();

    // Stream reads -> batches -> worker pool -> buffered PAF, with
    // parsing, mapping and writing overlapped and never more than
    // MapPipeline::kInFlight batches in memory.
    io::FastxReader reader(options.readsPath);
    io::PafWriter paf(std::cout);
    core::MapPipeline pipeline(reader, mapper, formatter, paf,
                               options.batchSize);
    // A reader that goes away (`segram map | head`) is a graceful
    // stop, while a stream that fails for real (ENOSPC, EIO) must
    // abort loudly — silently truncated mappings look complete and are
    // worse than no output at all.
    try {
        pipeline.run();
    } catch (const IoError &error) {
        if (error.brokenPipe()) {
            // The consumer closed its end (head, a dying pager):
            // everyday shell usage, not a failure.
            std::fprintf(stderr,
                         "[segram] output pipe closed by the reader "
                         "after %llu records; stopping\n",
                         static_cast<unsigned long long>(
                             paf.recordsWritten()));
            return 0;
        }
        throw; // ENOSPC/EIO/...: main reports it and exits nonzero
    }
    const core::MapRunTotals &totals = pipeline.totals();
    const core::PipelineStats &stats = totals.stats;
    const uint64_t total_reads = totals.reads;
    const uint64_t mapped = totals.mapped;
    const double wall = totals.wallSec;

    std::fprintf(stderr,
                 "[segram] %.*s: mapped %llu/%llu reads (%llu regions "
                 "aligned, %llu seeds fetched)\n",
                 static_cast<int>(engine_name.size()),
                 engine_name.data(),
                 static_cast<unsigned long long>(mapped),
                 static_cast<unsigned long long>(total_reads),
                 static_cast<unsigned long long>(stats.regionsAligned),
                 static_cast<unsigned long long>(
                     stats.seeding.seedsFetched));
    std::fprintf(
        stderr,
        "[segram] pre-processing %.3f s (%s), mapping %.2f s "
        "(%d thread%s): %.1f reads/s, %.0f bases/s\n",
        preprocess_sec,
        from_pack ? "mmap-loaded pack"
                  : (from_gfa ? "imported from GFA"
                              : "built from FASTA+VCF"),
        wall, threads, threads == 1 ? "" : "s",
        static_cast<double>(total_reads) / wall,
        static_cast<double>(totals.bases) / wall);
    if (options.memBudgetMb > 0) {
        const auto residency = mapper.residencyStats();
        std::fprintf(
            stderr,
            "[segram] mem budget %llu MiB: %llu shard acquisitions, "
            "%llu faults, %llu evictions, peak resident %.2f MiB\n",
            static_cast<unsigned long long>(options.memBudgetMb),
            static_cast<unsigned long long>(residency.acquisitions),
            static_cast<unsigned long long>(residency.faults),
            static_cast<unsigned long long>(residency.evictions),
            static_cast<double>(residency.peakResidentBytes) /
                (1024.0 * 1024.0));
    }
    if (options.printStats) {
        // Where the pre-processing wall went.
        if (from_pack) {
            const io::PackOpenTimes open = reference.packOpenTimes();
            std::fprintf(stderr,
                         "[segram] pre-processing split: mmap %.4f s, "
                         "checksums %.4f s, table validation %.4f s, "
                         "other %.4f s\n",
                         open.mapSec, open.checksumSec, open.validateSec,
                         preprocess_sec - open.mapSec - open.checksumSec -
                             open.validateSec);
        } else {
            std::fprintf(stderr,
                         "[segram] pre-processing split: read inputs "
                         "%.4f s, build %.4f s\n",
                         build_times.readSec, build_times.buildSec);
        }
        // Where the mapping wall went on the calling thread, which
        // parses and writes while the pool maps: its wait covers the
        // I/O when the pool is the bottleneck. Busy fraction = summed
        // worker item time / (threads x mapping wall).
        std::fprintf(stderr,
                     "[segram] pipeline: parse %.3f s, wait for mapping "
                     "%.3f s, format+write %.3f s on the calling thread; "
                     "pool busy %.2f (%.3f s over %d x %.3f s)\n",
                     totals.parseSec, totals.waitSec, totals.writeSec,
                     pipeline.poolBusyFraction(), totals.poolBusySec,
                     threads, wall);
        // Stage seconds are summed across worker threads (aggregate
        // stage work), so their total can exceed the wall time above.
        const core::StageTimings &timings = stats.timings;
        const double stage_total = timings.seedingSec +
                                   timings.linearizeSec +
                                   timings.alignSec;
        const auto pct = [stage_total](double sec) {
            return stage_total > 0.0 ? 100.0 * sec / stage_total : 0.0;
        };
        std::fprintf(
            stderr,
            "[segram] stage breakdown (summed over %d thread%s): "
            "seeding %.3f s (%.1f%%), linearization %.3f s (%.1f%%), "
            "alignment %.3f s (%.1f%%)\n",
            threads, threads == 1 ? "" : "s", timings.seedingSec,
            pct(timings.seedingSec), timings.linearizeSec,
            pct(timings.linearizeSec), timings.alignSec,
            pct(timings.alignSec));
        // Lane-occupancy gauge of the batched alignment path: how full
        // the SIMD lanes ran, and how much work fell back per-window.
        const uint64_t windows =
            stats.batchedWindows + stats.scalarWindows;
        const double occupancy =
            stats.batchLaunches > 0
                ? static_cast<double>(stats.batchedWindows) /
                      static_cast<double>(stats.batchLaunches)
                : 0.0;
        std::fprintf(
            stderr,
            "[segram] lane batching: %.2f/%d windows per launch, "
            "%.1f%% of %llu windows batched (%llu per-window)\n",
            occupancy, bitops::kBatchLanes,
            windows > 0 ? 100.0 *
                              static_cast<double>(stats.batchedWindows) /
                              static_cast<double>(windows)
                        : 0.0,
            static_cast<unsigned long long>(windows),
            static_cast<unsigned long long>(stats.scalarWindows));
        std::fprintf(stderr, "[segram] kernel backend: %s\n",
                     bitops::activeBackendName());
    }
    return mapped == 0 && total_reads > 0 ? 1 : 0;
}

int
cmdSimulate(const std::string &prefix, uint64_t genome_len,
            uint32_t num_reads, uint32_t read_len, double error_rate,
            uint32_t num_chromosomes, double repeat_fraction,
            double tandem_fraction)
{
    constexpr uint64_t kSeed = 1234;
    sim::RepeatReport repeats;
    std::vector<sim::ChromosomeDataset> dataset;
    if (num_chromosomes == 1) {
        // Single-chromosome path: the exact RNG call sequence of the
        // original generator (genome -> variants -> donor), so the
        // committed golden outputs keyed to seed 1234 stay valid.
        Rng rng(kSeed);
        sim::GenomeConfig genome_config;
        genome_config.length = genome_len;
        genome_config.repeatFraction = repeat_fraction;
        genome_config.tandemFraction = tandem_fraction;
        sim::ChromosomeDataset entry;
        entry.name = "chr1";
        entry.reference =
            sim::simulateGenome(genome_config, rng, &repeats);
        entry.variants = sim::simulateVariants(
            entry.reference, sim::VariantConfig{}, rng);
        entry.graph =
            graph::buildGraph(entry.reference, entry.variants);
        entry.donor = sim::DonorGenome(entry.reference, entry.variants,
                                       entry.graph, 0.5, rng);
        dataset.push_back(std::move(entry));
    } else {
        sim::MultiDatasetConfig config;
        config.genome.numChromosomes = num_chromosomes;
        config.genome.totalLength = genome_len;
        config.genome.repeats.repeatFraction = repeat_fraction;
        config.genome.repeats.tandemFraction = tandem_fraction;
        config.seed = kSeed;
        dataset = sim::makeMultiDataset(config, &repeats);
    }

    std::vector<io::FastaRecord> fasta;
    uint64_t total_bases = 0;
    for (const auto &entry : dataset) {
        fasta.push_back({entry.name, entry.reference});
        total_bases += entry.reference.size();
    }
    io::writeFastaFile(prefix + ".fa", fasta);
    std::vector<io::VcfRecord> vcf;
    for (const auto &entry : dataset) {
        for (const auto &variant : entry.variants) {
            if (variant.pos == 0)
                continue; // indels at position 0 cannot be VCF-padded
            vcf.push_back(
                graph::toVcfRecord(variant, entry.name,
                                   entry.reference));
        }
    }
    io::writeVcfFile(prefix + ".vcf", vcf);

    Rng rng(kSeed + 1);
    sim::ReadSimConfig read_config{
        read_len, num_reads,
        read_len >= 1000 ? sim::ErrorProfile::pacbio(error_rate)
                         : sim::ErrorProfile::illumina(error_rate)};
    // A quarter of the reads come from the minus strand, so mapping
    // them end to end exercises every engine's RC path and the truth
    // sidecar's strand column.
    read_config.revCompProbability = 0.25;
    const std::string profile = sim::profileLabel(read_config.errors);

    // Reads per chromosome proportional to length, chr1 (the largest)
    // absorbing the rounding remainder, so coverage is uniform across
    // the skewed chromosomes and the truth row count is exact.
    std::vector<uint32_t> counts(dataset.size());
    uint32_t assigned = 0;
    for (size_t c = 1; c < dataset.size(); ++c) {
        counts[c] = static_cast<uint32_t>(
            static_cast<uint64_t>(num_reads) *
            dataset[c].reference.size() / total_bases);
        assigned += counts[c];
    }
    counts[0] = num_reads - assigned;

    std::vector<io::FastaRecord> read_records;
    std::vector<io::FastqRecord> read_records_fq;
    std::vector<eval::TruthRecord> truth;
    size_t read_id = 0;
    for (size_t c = 0; c < dataset.size(); ++c) {
        if (counts[c] == 0)
            continue;
        sim::ReadSimConfig chromosome_reads = read_config;
        chromosome_reads.numReads = counts[c];
        const auto reads =
            sim::simulateReads(dataset[c].donor, chromosome_reads, rng);
        for (const auto &read : reads) {
            const std::string name =
                "read" + std::to_string(read_id++) + "_truth" +
                std::to_string(read.truthLinearStart);
            read_records.push_back({name, read.seq});
            // The same reads as FASTQ (constant quality) exercise the
            // FASTQ ingestion path of `segram map`.
            read_records_fq.push_back(
                {name, read.seq, std::string(read.seq.size(), 'I')});
            truth.push_back({name, dataset[c].name, read.donorStart,
                             read.truthLinearStart,
                             read.reverseComplemented ? '-' : '+',
                             static_cast<uint32_t>(read.seq.size()),
                             read.plantedErrors, profile});
        }
    }
    io::writeFastaFile(prefix + ".reads.fa", read_records);
    io::writeFastqFile(prefix + ".reads.fq", read_records_fq);
    eval::writeTruthFile(prefix + ".truth.tsv", truth);
    std::fprintf(
        stderr,
        "[segram] wrote %s.fa (%llu bp, %zu chromosome%s, "
        "%llu dispersed + %llu tandem repeat bases), %s.vcf "
        "(%zu records), %s.reads.{fa,fq} + %s.truth.tsv (%u %s reads)\n",
        prefix.c_str(), static_cast<unsigned long long>(total_bases),
        dataset.size(), dataset.size() == 1 ? "" : "s",
        static_cast<unsigned long long>(repeats.dispersedBases),
        static_cast<unsigned long long>(repeats.tandemBases),
        prefix.c_str(), vcf.size(), prefix.c_str(), prefix.c_str(),
        num_reads, profile.c_str());
    return 0;
}

/**
 * `segram eval`: joins each PAF file against the simulate truth
 * sidecar. Machine-readable TSV rows go to stdout; the human summary
 * goes to stderr. Exit 1 when any mapper placed zero reads correctly
 * (an eval of all-wrong mappings is almost certainly a mixed-up file
 * pair).
 */
int
cmdEval(const std::string &truth_path,
        const std::vector<std::string> &paf_args, uint64_t threshold)
{
    eval::EvalConfig config;
    config.distanceThreshold = threshold;
    const eval::AccuracyEvaluator evaluator(
        eval::readTruthFile(truth_path), config);
    SEGRAM_CHECK(evaluator.numTruthReads() > 0,
                 "truth file has no reads: " + truth_path);

    std::string tsv =
        "#mapper\tprofile\ttruth_reads\tmapped\tcorrect\t"
        "sensitivity\tprecision\n";
    bool every_mapper_placed_some = true;
    for (const auto &arg : paf_args) {
        // "name=path" labels the mapper; a bare path is its own
        // label. A '=' after a '/' belongs to the path (e.g.
        // /data/run=3/out.paf), not to a label.
        std::string name = arg;
        std::string path = arg;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos && eq > 0 &&
            arg.find('/') > eq) {
            name = arg.substr(0, eq);
            path = arg.substr(eq + 1);
        }
        const auto records = io::readPafFile(path);
        const auto report = evaluator.evaluate(name, records);
        eval::appendReportTsv(tsv, report);
        const std::string text = eval::formatReport(report);
        std::fprintf(stderr, "%s", text.c_str());
        if (report.overall.correctReads == 0) {
            std::fprintf(stderr,
                         "[segram] warning: %s placed zero reads "
                         "correctly (mixed-up truth/PAF pair?)\n",
                         name.c_str());
            every_mapper_placed_some = false;
        }
    }
    std::fwrite(tsv.data(), 1, tsv.size(), stdout);
    return every_mapper_placed_some ? 0 : 1;
}

/** Options of the serve command; the pipeline flags are in MapOptions. */
struct ServeOptions
{
    serve::ServerConfig server; ///< --socket, --queue, --batch-limit
    std::string listenSpec;  ///< HOST:PORT TCP listener; empty = none
    /** Tenants: (reference name, pack path) pairs. */
    std::vector<std::pair<std::string, std::string>> packs;
};

/** Write end of the shutdown self-pipe (signal handler target). */
int g_shutdown_fd = -1;

extern "C" void
onShutdownSignal(int)
{
    // write() is async-signal-safe; everything else happens on the
    // main thread once the pipe wakes it.
    const char byte = 1;
    [[maybe_unused]] const ssize_t written =
        ::write(g_shutdown_fd, &byte, 1);
}

/**
 * `segram serve`: load every pack once, serve mapping requests until
 * SIGTERM/SIGINT, then drain and exit 0. Every tenant runs
 * SegramConfig::product, like `segram map`, so the daemon's PAF is
 * byte-identical to the offline command on the same pack and reads.
 */
int
cmdServe(const ServeOptions &options, const MapOptions &map)
{
    // Shutdown self-pipe: the handler only writes a byte; the main
    // thread does the actual (non-async-signal-safe) teardown. Both
    // handlers go in before any pack loads and before the server
    // answers its first PING, so a SIGTERM at any point after start-up
    // is a graceful stop (a signal during loading waits in the pipe).
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
        const int saved_errno = errno;
        throw IoError("pipe2() failed", saved_errno);
    }
    g_shutdown_fd = pipe_fds[1];
    std::signal(SIGTERM, onShutdownSignal);
    std::signal(SIGINT, onShutdownSignal);

    serve::ServiceConfig service_config;
    service_config.segram = core::SegramConfig::product(map.errorRate);
    service_config.batch.threads = map.threads;
    service_config.batch.memBudgetBytes = map.memBudgetMb * 1024 * 1024;
    service_config.load.coldLoad = map.memBudgetMb > 0;

    serve::ServiceRegistry registry;
    for (const auto &[name, pack_path] : options.packs) {
        const auto load_start = std::chrono::steady_clock::now();
        auto service = std::make_shared<serve::MappingService>(
            name, pack_path, service_config);
        const auto snap = service->snapshot();
        std::fprintf(stderr,
                     "[segram] serving %s from %s: %zu shard%s, "
                     "%d thread%s (loaded in %.2f s)\n",
                     name.c_str(), pack_path.c_str(), snap.shards,
                     snap.shards == 1 ? "" : "s", snap.threads,
                     snap.threads == 1 ? "" : "s",
                     secondsSince(load_start));
        registry.add(std::move(service));
    }

    serve::ServerConfig server_config = options.server;
    if (!options.listenSpec.empty()) {
        const auto [host, port] = serve::parseHostPort(
            options.listenSpec);
        server_config.tcpHost = host;
        server_config.tcpPort = port;
    }
    serve::Server server(registry, server_config);
    server.start();
    if (!server_config.unixPath.empty())
        std::fprintf(stderr, "[segram] listening on unix socket %s\n",
                     server_config.unixPath.c_str());
    if (!options.listenSpec.empty())
        std::fprintf(stderr, "[segram] listening on tcp %s:%d\n",
                     server_config.tcpHost.c_str(),
                     server.boundTcpPort());


    char byte = 0;
    while (::read(pipe_fds[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::fprintf(stderr,
                 "[segram] shutting down: draining in-flight "
                 "requests\n");
    server.stop();
    const std::string stats = server.statsText();
    std::fprintf(stderr, "%s", stats.c_str());
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    g_shutdown_fd = -1;
    return 0;
}

/** Options of the client command. */
struct ClientOptions
{
    std::string socketPath;  ///< unix-domain daemon address
    std::string connectSpec; ///< HOST:PORT daemon address
    size_t batchSize = 256;
    /** Subcommand: ping | stats | reload <ref> <pack> |
     *  map <ref> <reads>. */
    std::vector<std::string> command;
};

serve::ServeClient
connectClient(const ClientOptions &options)
{
    if (!options.socketPath.empty())
        return serve::ServeClient::connectUnixSocket(
            options.socketPath);
    const auto [host, port] =
        serve::parseHostPort(options.connectSpec);
    return serve::ServeClient::connectTcpSocket(host, port);
}

/**
 * Streams a reads file through the daemon in batches, printing the
 * PAF payload to stdout. `ERR BUSY` (the queue-full backpressure
 * signal) is retried with exponential backoff; every other error
 * aborts — retrying a NOREF forever would just hide a typo.
 */
int
cmdClientMap(serve::ServeClient &client, const std::string &reference,
             const std::string &reads_path, size_t batch_size)
{
    io::FastxReader reader(reads_path);
    std::vector<io::FastxRecord> batch;
    std::vector<serve::ReadRecord> reads;
    uint64_t total_reads = 0;
    uint64_t paf_lines = 0;
    uint64_t busy_retries = 0;
    try {
        while (true) {
            batch.clear();
            if (reader.nextBatch(batch, batch_size) == 0)
                break;
            reads.clear();
            for (auto &record : batch)
                reads.push_back({std::move(record.name),
                                 std::move(record.seq)});
            serve::Reply reply;
            for (uint64_t attempt = 0;; ++attempt) {
                reply = client.mapReads(reference, reads);
                if (reply.ok)
                    break;
                SEGRAM_CHECK(reply.code == serve::kErrBusy,
                             "server error " + reply.code + ": " +
                                 reply.message);
                SEGRAM_CHECK(attempt < 64,
                             "server still busy after " +
                                 std::to_string(attempt) +
                                 " retries: " + reply.message);
                ++busy_retries;
                // Exponential backoff, capped at ~100 ms per wait.
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::min<uint64_t>(100, 1ull << std::min<uint64_t>(
                                                attempt, 7))));
            }
            errno = 0;
            if (std::fwrite(reply.payload.data(), 1,
                            reply.payload.size(),
                            stdout) != reply.payload.size()) {
                const int saved_errno = errno;
                throw IoError("short write to stdout", saved_errno);
            }
            paf_lines += reply.lines;
            total_reads += reads.size();
        }
        errno = 0;
        if (std::fflush(stdout) != 0) {
            const int saved_errno = errno;
            throw IoError("stdout flush failed", saved_errno);
        }
    } catch (const IoError &error) {
        if (error.brokenPipe()) {
            std::fprintf(stderr,
                         "[segram] output pipe closed by the reader; "
                         "stopping\n");
            return 0;
        }
        throw;
    }
    std::fprintf(stderr,
                 "[segram] client: %llu reads -> %llu PAF records "
                 "(%llu busy retries)\n",
                 static_cast<unsigned long long>(total_reads),
                 static_cast<unsigned long long>(paf_lines),
                 static_cast<unsigned long long>(busy_retries));
    return 0;
}

/** `segram client`: one-shot daemon interactions for scripts and CI. */
int
cmdClient(const ClientOptions &options)
{
    const auto &command = options.command;
    serve::ServeClient client = connectClient(options);
    if (command[0] == "ping") {
        const serve::Reply reply = client.ping();
        SEGRAM_CHECK(reply.ok, "ping failed: " + reply.code + " " +
                                   reply.message);
        std::printf("PONG\n");
        return 0;
    }
    if (command[0] == "stats") {
        const serve::Reply reply = client.stats();
        SEGRAM_CHECK(reply.ok, "stats failed: " + reply.code + " " +
                                   reply.message);
        std::fwrite(reply.payload.data(), 1, reply.payload.size(),
                    stdout);
        return 0;
    }
    if (command[0] == "reload") {
        SEGRAM_CHECK(command.size() >= 3,
                     "client reload takes <reference> <pack.segram>");
        const serve::Reply reply = client.reload(command[1],
                                                 command[2]);
        if (!reply.ok) {
            std::fprintf(stderr, "[segram] reload failed: %s %s\n",
                         reply.code.c_str(), reply.message.c_str());
            return 1;
        }
        std::fprintf(stderr, "[segram] reloaded %s from %s\n",
                     command[1].c_str(), command[2].c_str());
        return 0;
    }
    if (command[0] == "map") {
        SEGRAM_CHECK(command.size() >= 3,
                     "client map takes <reference> <reads.fa|fq>");
        return cmdClientMap(client, command[1], command[2],
                            options.batchSize);
    }
    throw InputError("unknown client subcommand '" + command[0] +
                     "' (expected ping, stats, reload or map)");
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  segram construct <ref.fa> <vars.vcf> <out.gfa>\n"
        "  segram index [--threads N] [--bucket-bits N] [--discard-top F] "
        "[--stats] <ref.fa> <vars.vcf> <out.segram>\n"
        "  segram index [--threads N] [--bucket-bits N] [--discard-top F] "
        "[--stats] <graph.gfa> <out.segram>\n"
        "  segram map [--threads N] [--batch N] [--bucket-bits N] "
        "[--discard-top F] [--engine segram|graphaligner|vg] [--stats]\n"
        "             [--max-regions N] [--early-exit F] "
        "[--chain-filter] [--max-chains N] [--hop-limit N] "
        "[--max-occ N] [--path-coords]\n"
        "             <ref.fa> <vars.vcf> <reads.fa|fq> [error_rate]\n"
        "  segram map [--threads N] [--batch N] [--engine E] "
        "[--mem-budget MiB] [...] "
        "(<graph.gfa> | <pack.segram>) <reads.fa|fq> [error_rate]\n"
        "  segram simulate [--chromosomes N] [--repeat-fraction F] "
        "[--tandem-fraction F]\n"
        "                  <prefix> <genome_len> <num_reads> "
        "<read_len> <error_rate>\n"
        "  segram eval [--threshold N] <truth.tsv> "
        "<[name=]out.paf>...\n"
        "  segram serve [--socket PATH] [--listen HOST:PORT] "
        "[--threads N] [--queue N]\n"
        "               [--batch-limit N] [--mem-budget MiB] "
        "[--error-rate F] <name=pack.segram>...\n"
        "  segram client (--socket PATH | --connect HOST:PORT) "
        "(ping | stats | reload <ref> <pack.segram> |\n"
        "               map [--batch N] <ref> <reads.fa|fq>)\n");
}

/** Parsed command line: flags extracted, positionals in order. */
struct Args
{
    std::vector<std::string> positional;
    /** Map flags, and the ones index, serve and client share. */
    MapOptions map;
    ServeOptions serve;
    uint64_t threshold = 100;
    std::string socketPath;  ///< serve listener or client address
    std::string connectSpec; ///< client TCP address
    // Simulate knobs (simulate only).
    uint32_t chromosomes = 1;
    double repeatFraction = sim::GenomeConfig().repeatFraction;
    double tandemFraction = sim::GenomeConfig().tandemFraction;

    /** Names of the flags that appeared on the command line. */
    std::vector<std::string> seenFlags;

    bool
    seen(std::string_view flag) const
    {
        for (const auto &name : seenFlags)
            if (name == flag)
                return true;
        return false;
    }

    /**
     * Rejects flags that the dispatched subcommand does not consume —
     * a silently ignored flag fakes behaviour the run never had.
     * @p allowed lists the flags this subcommand understands.
     */
    void
    requireFlagsApplyTo(
        const char *command,
        std::initializer_list<std::string_view> allowed) const
    {
        for (const auto &name : seenFlags) {
            bool ok = false;
            for (const auto allow : allowed)
                ok = ok || name == allow;
            SEGRAM_CHECK(ok, name + " does not apply to `" + command +
                                 "`");
        }
    }
};

/** Strict integer flag parsing: rejects "eight", "4x", "". */
long long
parseIntFlag(const char *flag, const char *text)
{
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    SEGRAM_CHECK(end != text && *end == '\0',
                 std::string(flag) + " needs an integer, got '" + text +
                     "'");
    return value;
}

/** Strict double parsing (flags and positionals): rejects "fast",
 *  "1.5x", "". */
double
parseDoubleFlag(const char *flag, const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    SEGRAM_CHECK(end != text && *end == '\0',
                 std::string(flag) + " needs a number, got '" + text +
                     "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto next_value = [&](const char *flag) {
            SEGRAM_CHECK(i + 1 < argc,
                         std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--threads" || arg == "-t") {
            const long long value =
                parseIntFlag("--threads", next_value("--threads"));
            // 0 used to mean "all cores" and was silently surprising
            // on shared machines; an explicit count is now required.
            SEGRAM_CHECK(value >= 1 && value <= 4096,
                         "--threads must be in [1, 4096]");
            args.map.threads = static_cast<int>(value);
            args.seenFlags.push_back("--threads");
        } else if (arg == "--batch") {
            const long long value =
                parseIntFlag("--batch", next_value("--batch"));
            SEGRAM_CHECK(value >= 1, "--batch must be >= 1");
            args.map.batchSize = static_cast<size_t>(value);
            args.seenFlags.push_back("--batch");
        } else if (arg == "--bucket-bits") {
            const long long value = parseIntFlag(
                "--bucket-bits", next_value("--bucket-bits"));
            // Same domain MinimizerIndex::build accepts; the paper
            // sweeps up to 2^24 (Fig. 7).
            SEGRAM_CHECK(value >= 1 && value <= 32,
                         "--bucket-bits must be in [1, 32]");
            args.map.bucketBits = static_cast<int>(value);
            args.seenFlags.push_back("--bucket-bits");
        } else if (arg == "--engine") {
            args.map.engine = next_value("--engine");
            SEGRAM_CHECK(args.map.engine == "segram" ||
                             args.map.engine == "graphaligner" ||
                             args.map.engine == "vg",
                         "--engine must be segram, graphaligner or "
                         "vg, got '" +
                             args.map.engine + "'");
            args.seenFlags.push_back("--engine");
        } else if (arg == "--threshold") {
            const long long value =
                parseIntFlag("--threshold", next_value("--threshold"));
            SEGRAM_CHECK(value >= 0,
                         "--threshold must be >= 0 characters");
            args.threshold = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--threshold");
        } else if (arg == "--max-regions") {
            const long long value = parseIntFlag(
                "--max-regions", next_value("--max-regions"));
            // 0 aligns every candidate (the hardware behaviour).
            SEGRAM_CHECK(value >= 0 && value <= 0xFFFFFFFFll,
                         "--max-regions must be in [0, 2^32)");
            args.map.maxRegions = static_cast<uint32_t>(value);
            args.seenFlags.push_back("--max-regions");
        } else if (arg == "--early-exit") {
            const double value = parseDoubleFlag(
                "--early-exit", next_value("--early-exit"));
            SEGRAM_CHECK(value >= 0.0 && value <= 100.0,
                         "--early-exit must be in [0, 100] "
                         "(0 disables early exit)");
            args.map.earlyExit = value;
            args.seenFlags.push_back("--early-exit");
        } else if (arg == "--chain-filter") {
            args.map.chainFilter = true;
            args.seenFlags.push_back("--chain-filter");
        } else if (arg == "--max-chains") {
            const long long value = parseIntFlag(
                "--max-chains", next_value("--max-chains"));
            SEGRAM_CHECK(value >= 1 && value <= 1'000'000,
                         "--max-chains must be in [1, 1000000]");
            args.map.maxChains = static_cast<int>(value);
            args.seenFlags.push_back("--max-chains");
        } else if (arg == "--hop-limit") {
            const long long value = parseIntFlag(
                "--hop-limit", next_value("--hop-limit"));
            // The HopBits height; 0 selects the software-exact
            // unlimited mode (graph::kUnlimitedHops).
            SEGRAM_CHECK(value >= 0 && value <= 0xFFFF,
                         "--hop-limit must be in [0, 65535] "
                         "(0 = unlimited)");
            args.map.hopLimit = static_cast<int>(value);
            args.seenFlags.push_back("--hop-limit");
        } else if (arg == "--max-occ") {
            const long long value =
                parseIntFlag("--max-occ", next_value("--max-occ"));
            // 0 keeps every surviving occurrence (the paper pipeline);
            // a positive cap subsamples over-full lists.
            SEGRAM_CHECK(value >= 0 && value <= 0xFFFFFFFFll,
                         "--max-occ must be in [0, 2^32) "
                         "(0 = uncapped)");
            args.map.maxOcc = static_cast<uint32_t>(value);
            args.seenFlags.push_back("--max-occ");
        } else if (arg == "--mem-budget") {
            const long long value = parseIntFlag(
                "--mem-budget", next_value("--mem-budget"));
            SEGRAM_CHECK(value >= 1 && value <= 1'048'576,
                         "--mem-budget must be in [1, 1048576] MiB");
            args.map.memBudgetMb = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--mem-budget");
        } else if (arg == "--discard-top") {
            const double value = parseDoubleFlag(
                "--discard-top", next_value("--discard-top"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--discard-top must be in [0, 1) "
                         "(0 disables the frequency filter)");
            args.map.discardTop = value;
            args.seenFlags.push_back("--discard-top");
        } else if (arg == "--chromosomes") {
            const long long value = parseIntFlag(
                "--chromosomes", next_value("--chromosomes"));
            SEGRAM_CHECK(value >= 1 && value <= 4096,
                         "--chromosomes must be in [1, 4096]");
            args.chromosomes = static_cast<uint32_t>(value);
            args.seenFlags.push_back("--chromosomes");
        } else if (arg == "--repeat-fraction") {
            const double value = parseDoubleFlag(
                "--repeat-fraction", next_value("--repeat-fraction"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--repeat-fraction must be in [0, 1)");
            args.repeatFraction = value;
            args.seenFlags.push_back("--repeat-fraction");
        } else if (arg == "--tandem-fraction") {
            const double value = parseDoubleFlag(
                "--tandem-fraction", next_value("--tandem-fraction"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--tandem-fraction must be in [0, 1)");
            args.tandemFraction = value;
            args.seenFlags.push_back("--tandem-fraction");
        } else if (arg == "--socket") {
            args.socketPath = next_value("--socket");
            SEGRAM_CHECK(!args.socketPath.empty(),
                         "--socket needs a non-empty path");
            args.seenFlags.push_back("--socket");
        } else if (arg == "--listen") {
            args.serve.listenSpec = next_value("--listen");
            args.seenFlags.push_back("--listen");
        } else if (arg == "--connect") {
            args.connectSpec = next_value("--connect");
            args.seenFlags.push_back("--connect");
        } else if (arg == "--queue") {
            const long long value =
                parseIntFlag("--queue", next_value("--queue"));
            SEGRAM_CHECK(value >= 1 && value <= 1'048'576,
                         "--queue must be in [1, 1048576]");
            args.serve.server.queueCapacity = static_cast<size_t>(value);
            args.seenFlags.push_back("--queue");
        } else if (arg == "--batch-limit") {
            const long long value = parseIntFlag(
                "--batch-limit", next_value("--batch-limit"));
            SEGRAM_CHECK(value >= 1 && value <= 0xFFFFFFFFll,
                         "--batch-limit must be in [1, 2^32)");
            args.serve.server.maxReadsPerRequest =
                static_cast<uint64_t>(value);
            args.seenFlags.push_back("--batch-limit");
        } else if (arg == "--error-rate") {
            const double value = parseDoubleFlag(
                "--error-rate", next_value("--error-rate"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--error-rate must be in [0, 1)");
            args.map.errorRate = value;
            args.seenFlags.push_back("--error-rate");
        } else if (arg == "--path-coords") {
            args.map.pathCoords = true;
            args.seenFlags.push_back("--path-coords");
        } else if (arg == "--stats") {
            args.map.printStats = true;
            args.seenFlags.push_back("--stats");
        } else {
            args.positional.emplace_back(arg);
        }
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    // A closed stdout pipe (`segram map | head`) or a vanished daemon
    // client must surface as EPIPE from write(), which the IoError
    // paths handle deliberately — not as a silent SIGPIPE kill.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const Args args = parseArgs(argc, argv);
        const auto &pos = args.positional;
        if (pos.size() >= 4 && pos[0] == "construct") {
            args.requireFlagsApplyTo("construct", {});
            return cmdConstruct(pos[1], pos[2], pos[3]);
        }
        if (pos.size() >= 3 && pos[0] == "index") {
            args.requireFlagsApplyTo("index",
                                     {"--threads", "--bucket-bits",
                                      "--discard-top", "--stats"});
            // The build defaults to every hardware thread: its output
            // is byte-identical at any count.
            const int threads = args.seen("--threads")
                                    ? args.map.threads
                                    : util::ThreadPool::defaultThreads();
            // Graph source by content: an imported GFA replaces the
            // FASTA+VCF pair (and needs no VCF positional). Exactly
            // two positionals then — with a stray third one, pos[2]
            // would silently become the pack output and overwrite
            // whatever file the user actually passed there.
            if (io::isGfaFile(pos[1])) {
                SEGRAM_CHECK(pos.size() == 3,
                             "index from a GFA takes exactly "
                             "<graph.gfa> <out.segram>");
                return cmdIndex(pos[1], "", pos[2], args.map.bucketBits,
                                args.map.discardTop, threads,
                                args.map.printStats);
            }
            SEGRAM_CHECK(pos.size() >= 4,
                         "index needs <ref.fa> <vars.vcf> <out.segram> "
                         "(or <graph.gfa> <out.segram>)");
            return cmdIndex(pos[1], pos[2], pos[3], args.map.bucketBits,
                            args.map.discardTop, threads,
                            args.map.printStats);
        }
        if (pos.size() >= 3 && pos[0] == "map") {
            args.requireFlagsApplyTo(
                "map", {"--threads", "--batch", "--bucket-bits",
                        "--discard-top", "--engine", "--stats",
                        "--max-regions", "--early-exit",
                        "--chain-filter", "--max-chains", "--hop-limit",
                        "--max-occ", "--mem-budget", "--path-coords"});
            // The pipeline knobs configure the SeGraM pipeline only,
            // and --stats reports timings only SegramMapper collects;
            // silently ignoring them under a baseline engine would
            // fake tuned (or measured) runs.
            if (args.map.engine != "segram") {
                for (const char *knob :
                     {"--max-regions", "--early-exit", "--chain-filter",
                      "--max-chains", "--hop-limit", "--max-occ",
                      "--mem-budget", "--stats"}) {
                    SEGRAM_CHECK(!args.seen(knob),
                                 std::string(knob) +
                                     " only applies to --engine segram");
                }
            }
            MapOptions options = args.map;
            // Three input modes, detected by content (magic/sniff),
            // not by file extension: a `.segram` pack or an imported
            // GFA graph replaces the FASTA+VCF pair.
            size_t reads_pos;
            if (io::isPackFile(pos[1])) {
                // The bucket count was baked in at index time; a
                // silently ignored sweep flag would fake Fig. 7 runs.
                SEGRAM_CHECK(!args.seen("--bucket-bits"),
                             "--bucket-bits cannot be combined with a "
                             ".segram pack; pass it to `segram index`");
                SEGRAM_CHECK(!args.seen("--discard-top"),
                             "--discard-top cannot be combined with a "
                             ".segram pack; pass it to `segram index`");
                options.packPath = pos[1];
                reads_pos = 2;
            } else if (io::isGfaFile(pos[1])) {
                options.gfaPath = pos[1];
                reads_pos = 2;
            } else {
                SEGRAM_CHECK(pos.size() >= 4,
                             "map needs <ref.fa> <vars.vcf> <reads> "
                             "(or <graph.gfa>/<pack.segram> <reads>)");
                options.fastaPath = pos[1];
                options.vcfPath = pos[2];
                reads_pos = 3;
            }
            // Only a mapped pack has droppable shards; the budget on
            // in-memory tables would silently do nothing.
            SEGRAM_CHECK(!args.seen("--mem-budget") ||
                             !options.packPath.empty(),
                         "--mem-budget requires a .segram pack input "
                         "(in-memory tables cannot be dropped)");
            options.readsPath = pos[reads_pos];
            if (pos.size() >= reads_pos + 2) {
                options.errorRate = parseDoubleFlag(
                    "error_rate", pos[reads_pos + 1].c_str());
                SEGRAM_CHECK(options.errorRate >= 0.0 &&
                                 options.errorRate < 1.0,
                             "error_rate must be in [0, 1)");
            }
            return cmdMap(options);
        }
        if (pos.size() >= 6 && pos[0] == "simulate") {
            args.requireFlagsApplyTo("simulate",
                                     {"--chromosomes",
                                      "--repeat-fraction",
                                      "--tandem-fraction"});
            const long long genome_len =
                parseIntFlag("genome_len", pos[2].c_str());
            const long long num_reads =
                parseIntFlag("num_reads", pos[3].c_str());
            const long long read_len =
                parseIntFlag("read_len", pos[4].c_str());
            SEGRAM_CHECK(genome_len >= 1, "genome_len must be >= 1");
            // Upper bounds guard the uint32_t narrowing below — a
            // silently truncated count would be the old atoi bug in
            // new clothes.
            SEGRAM_CHECK(num_reads >= 1 && num_reads <= 0xFFFFFFFFll,
                         "num_reads must be in [1, 2^32)");
            SEGRAM_CHECK(read_len >= 1 && read_len <= 0xFFFFFFFFll,
                         "read_len must be in [1, 2^32)");
            const double error_rate =
                parseDoubleFlag("error_rate", pos[5].c_str());
            SEGRAM_CHECK(error_rate >= 0.0 && error_rate < 1.0,
                         "error_rate must be in [0, 1)");
            SEGRAM_CHECK(
                static_cast<uint64_t>(genome_len) >= args.chromosomes,
                "genome_len must cover one base per chromosome");
            return cmdSimulate(
                pos[1], static_cast<uint64_t>(genome_len),
                static_cast<uint32_t>(num_reads),
                static_cast<uint32_t>(read_len), error_rate,
                args.chromosomes, args.repeatFraction,
                args.tandemFraction);
        }
        if (pos.size() >= 3 && pos[0] == "eval") {
            args.requireFlagsApplyTo("eval", {"--threshold"});
            const std::vector<std::string> pafs(pos.begin() + 2,
                                                pos.end());
            return cmdEval(pos[1], pafs, args.threshold);
        }
        if (pos.size() >= 2 && pos[0] == "serve") {
            args.requireFlagsApplyTo(
                "serve", {"--socket", "--listen", "--threads",
                          "--queue", "--batch-limit", "--mem-budget",
                          "--error-rate"});
            SEGRAM_CHECK(!args.socketPath.empty() ||
                             !args.serve.listenSpec.empty(),
                         "serve needs --socket PATH and/or "
                         "--listen HOST:PORT");
            ServeOptions options = args.serve;
            options.server.unixPath = args.socketPath;
            for (size_t i = 1; i < pos.size(); ++i) {
                // name=pack.segram — the name is the MAP routing key,
                // so it must be explicit, not derived from the path.
                const size_t eq = pos[i].find('=');
                SEGRAM_CHECK(eq != std::string::npos && eq > 0 &&
                                 eq + 1 < pos[i].size(),
                             "serve pack arguments take the form "
                             "<name>=<pack.segram>, got '" + pos[i] +
                                 "'");
                options.packs.emplace_back(pos[i].substr(0, eq),
                                           pos[i].substr(eq + 1));
            }
            return cmdServe(options, args.map);
        }
        if (pos.size() >= 2 && pos[0] == "client") {
            args.requireFlagsApplyTo(
                "client", {"--socket", "--connect", "--batch"});
            SEGRAM_CHECK(args.socketPath.empty() !=
                             args.connectSpec.empty(),
                         "client needs exactly one of --socket PATH "
                         "or --connect HOST:PORT");
            ClientOptions options;
            options.socketPath = args.socketPath;
            options.connectSpec = args.connectSpec;
            options.batchSize = args.map.batchSize;
            options.command.assign(pos.begin() + 1, pos.end());
            return cmdClient(options);
        }
        usage();
        return 2;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "[segram] error: %s\n", error.what());
        return 1;
    }
}
