/**
 * @file
 * Pack cold-start bench: the cost of obtaining a queryable
 * pre-processed reference by (a) rebuilding it from the raw inputs
 * (graph construction + minimizer index build — what `segram map`
 * used to do on every invocation) versus (b) mmap-loading a `.segram`
 * pack, at 1/2/4 Mbp synthetic genomes.
 *
 * This is the software measurement of the paper's build-once /
 * query-forever split (Section 5): pre-processing scales with genome
 * size, pack load scales only with validation (one checksum pass over
 * the mapped tables). The bench gates on the largest genome: pack
 * load must be >= 10x faster than rebuild, and the loaded reference
 * must answer queries identically to the built one.
 *
 * `--quick` shrinks the sweep for sanitizer CI runs.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "src/core/reference.h"
#include "src/graph/graph_builder.h"
#include "src/index/minimizer_index.h"
#include "src/io/pack.h"
#include "src/sim/genome_sim.h"
#include "src/sim/variant_sim.h"

namespace
{

using namespace segram;

/** One measured row of the sweep. */
struct Row
{
    uint64_t genomeLen = 0;
    double buildSec = 0.0;
    double loadSec = 0.0;
    uint64_t packBytes = 0;
};

bool
equivalent(const core::PreprocessedReference &built,
           const core::PreprocessedReference &loaded)
{
    if (built.numChromosomes() != loaded.numChromosomes())
        return false;
    const auto &bg = built.graph(0);
    const auto &lg = loaded.graph(0);
    if (bg.numNodes() != lg.numNodes() ||
        bg.numEdges() != lg.numEdges() ||
        bg.totalSeqLen() != lg.totalSeqLen() ||
        bg.nodeSeq(0) != lg.nodeSeq(0))
        return false;
    const auto &bi = built.index(0);
    const auto &li = loaded.index(0);
    if (bi.stats().numDistinctMinimizers !=
            li.stats().numDistinctMinimizers ||
        bi.frequencyThreshold() != li.frequencyThreshold())
        return false;
    // Spot-check query equivalence through a real minimizer.
    const auto minimizers =
        seed::computeMinimizers(bg.nodeSeq(0), bi.sketch());
    for (const auto &minimizer : minimizers) {
        if (!std::ranges::equal(bi.locations(minimizer.hash),
                                li.locations(minimizer.hash)))
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick =
        argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    bench::printHeader("Pack cold start: rebuild vs mmap load");

    const std::vector<uint64_t> genome_lens =
        quick ? std::vector<uint64_t>{250'000, 1'000'000}
              : std::vector<uint64_t>{1'000'000, 2'000'000, 4'000'000};
    const std::string pack_path =
        (std::filesystem::temp_directory_path() /
         ("segram_bench_pack_" + std::to_string(::getpid()) + ".segram"))
            .string();

    std::printf("%-10s %12s %12s %12s %10s %10s\n", "genome", "build(s)",
                "load(s)", "speedup", "pack MiB", "identical");

    std::vector<Row> rows;
    bool all_equivalent = true;
    for (const uint64_t genome_len : genome_lens) {
        // Inputs (genome + variant set) are simulated outside the
        // timed region: both paths start from the same raw inputs.
        const auto config = bench::datasetConfig(genome_len);
        Rng rng(config.seed);
        const std::string reference_seq =
            sim::simulateGenome(config.genome, rng);
        const auto variants =
            sim::simulateVariants(reference_seq, config.variants, rng);

        // (a) Rebuild: what every `segram map` invocation used to pay.
        core::PreprocessedReference built;
        const double build_sec = bench::timeSec([&] {
            std::vector<core::PreprocessedChromosome> chromosomes;
            chromosomes.push_back(
                {"chr1", graph::buildGraph(reference_seq, variants), {}});
            chromosomes[0].index = index::MinimizerIndex::build(
                chromosomes[0].graph, config.index);
            built = core::PreprocessedReference(std::move(chromosomes));
        });

        built.save(pack_path);
        const uint64_t pack_bytes = std::filesystem::file_size(pack_path);

        // (b) mmap load, full validation on (the default everyone gets).
        core::PreprocessedReference loaded;
        const double load_sec = bench::timeSec(
            [&] { loaded = core::PreprocessedReference::load(pack_path); });

        const bool same = equivalent(built, loaded);
        all_equivalent = all_equivalent && same;
        rows.push_back({genome_len, build_sec, load_sec, pack_bytes});
        std::printf("%7.2fMbp %12.3f %12.4f %11.1fx %10.2f %10s\n",
                    static_cast<double>(genome_len) / 1e6, build_sec,
                    load_sec, build_sec / load_sec,
                    static_cast<double>(pack_bytes) / (1024.0 * 1024.0),
                    same ? "yes" : "NO");
    }
    std::filesystem::remove(pack_path);

    if (!all_equivalent) {
        std::fprintf(stderr, "FAIL: loaded pack is not equivalent to "
                             "the freshly built reference\n");
        return 1;
    }
    const Row &largest = rows.back();
    const double speedup = largest.buildSec / largest.loadSec;
    if (speedup < 10.0) {
        std::fprintf(stderr,
                     "FAIL: pack load only %.1fx faster than rebuild at "
                     "%.0f Mbp (need >= 10x)\n",
                     speedup,
                     static_cast<double>(largest.genomeLen) / 1e6);
        return 1;
    }
    std::printf("\nPack load is %.0fx faster than rebuild at the largest "
                "genome —\nthe build-once/map-forever split the paper's "
                "pre-processing assumes.\n",
                speedup);
    return 0;
}
