/**
 * @file
 * Human-scale reference harness: a multi-chromosome genome (100 Mbp
 * full, ~20 Mbp --quick) with >= 10% planted repeat content (shared
 * dispersed families + tandem arrays), mapped through the
 * work-stealing ShardedBatchMapper, gating the three scale features
 * of this repo against hard numbers:
 *
 *  1. Occurrence-capped seeding (minseed.maxOccurrences). Both legs
 *     run with the build-time frequency filter OFF (discardTop 0) so
 *     the cap is isolated: the default top-fraction threshold would
 *     already drop the planted repeat minimizers outright, and the
 *     uncapped leg would not be an uncapped leg. Candidate regions
 *     come out of MinSeed in genome order and early exit only fires
 *     once the true locus aligns, so an uncapped read that touches a
 *     hot motif aligns about half the motif's copies in the truth
 *     shard and *all* of them in the other seven — that flood is
 *     precisely what the cap removes. Gates: capped throughput >= 5x
 *     uncapped, capped sensitivity within 1% of uncapped (every read
 *     keeps long unique flanks, so the true region stays in the
 *     capped candidate set).
 *
 *  2. The (read-chunk x shard) work-stealing grid: all legs run
 *     through ShardedBatchMapper over skew-length chromosomes (chr1
 *     ~8x chr8), the schedule the cap numbers are measured under.
 *
 *  3. The memory budget: the reference is saved as a .segram pack,
 *     cold-loaded, and mapped under a budget of half its shard bytes.
 *     Gates: the residency accounting stays under the budget, the
 *     sampled process RSS growth stays near it (budget + a fixed
 *     allowance for workspaces/stacks), results stay bit-identical to
 *     the unbudgeted run, and the budgeted run costs <= 1.5x the
 *     unbudgeted wall time.
 *
 * Flags: --quick shrinks the genome for CI smoke runs; --json PATH
 * archives the measurements (BENCH_*.json artifacts).
 *
 * Like every bench, fully deterministic inputs (fixed seeds).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/reference.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"
#include "src/graph/graph_builder.h"
#include "src/io/paf.h"
#include "src/sim/genome_sim.h"
#include "src/sim/read_sim.h"
#include "src/sim/variant_sim.h"

namespace
{

using namespace segram;

/** One mapping leg's measurements. */
struct Leg
{
    std::vector<core::MultiMapResult> results;
    double sec = 0.0;
    double readsPerSec = 0.0;
    double sensitivity = 0.0;
    uint64_t rssDeltaBytes = 0;
};

bool
sameResults(const std::vector<core::MultiMapResult> &lhs,
            const std::vector<core::MultiMapResult> &rhs)
{
    if (lhs.size() != rhs.size())
        return false;
    for (size_t i = 0; i < lhs.size(); ++i) {
        if (lhs[i].mapped != rhs[i].mapped ||
            lhs[i].linearStart != rhs[i].linearStart ||
            lhs[i].editDistance != rhs[i].editDistance ||
            lhs[i].reverseComplemented != rhs[i].reverseComplemented ||
            lhs[i].chromosome != rhs[i].chromosome ||
            lhs[i].cigar.toString() != rhs[i].cigar.toString())
            return false;
    }
    return true;
}

/** The pipeline config shared by every leg, cap as the only variable. */
core::SegramConfig
pipelineConfig(uint32_t max_occ)
{
    core::SegramConfig config = core::SegramConfig::product(0.05);
    config.minseed.maxOccurrences = max_occ;
    // No region bound: every candidate the seeding stage emits is
    // aligned (early exit aside), so the legs differ only in how many
    // candidates the occurrence policy lets through.
    config.maxRegions = 0;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_scale [--quick] "
                         "[--json out.json]\n");
            return 2;
        }
    }

    bench::printHeader("Human-scale references (bench_scale)");

    const uint64_t total_len = quick ? 20'000'000 : 100'000'000;
    const uint32_t num_chromosomes = 8;
    const uint32_t num_reads = quick ? 120 : 200;
    const uint32_t read_len = 2'000;
    const uint32_t max_occ = 8;

    // --- dataset: skewed chromosomes, >= 10% planted repeats ---------
    sim::MultiGenomeConfig genome_config;
    genome_config.numChromosomes = num_chromosomes;
    genome_config.totalLength = total_len;
    // One short hot motif family. The uncapped leg's cost is
    // quadratic in copy number (more copies make both more hot reads
    // and more candidates per hot read), so the copy count grows
    // ~sqrt(genome) — ~2000 quick, ~4500 full — keeping the flood a
    // fixed multiple of the cheap-read floor at both scales. Every
    // hot read keeps >= 1.9 kbp of unique flank, so the cap never
    // loses the true region. Tandem arrays — each a private unit, so
    // low-frequency seeds — supply the bulk of the planted repeat
    // content.
    genome_config.repeats.repeatFraction = quick ? 0.01 : 0.0045;
    genome_config.repeats.repeatMotifLen = 100;
    genome_config.repeats.repeatMotifCount = 1;
    genome_config.repeats.tandemFraction = 0.10;
    genome_config.repeats.tandemUnitLen = 50;
    genome_config.repeats.tandemMaxCopies = 20;

    Rng rng(20220618);
    sim::RepeatReport planted;
    auto chromosomes =
        sim::simulateMultiChromosomeGenome(genome_config, rng, &planted);
    const double planted_fraction =
        static_cast<double>(planted.dispersedBases +
                            planted.tandemBases) /
        static_cast<double>(total_len);
    std::printf("genome: %llu bp, %u chromosomes (chr1 %zu bp .. chr%u "
                "%zu bp), %.1f%% planted repeats\n",
                static_cast<unsigned long long>(total_len),
                num_chromosomes, chromosomes.front().seq.size(),
                num_chromosomes, chromosomes.back().seq.size(),
                100.0 * planted_fraction);

    // No build-time frequency filter: the occurrence cap is the only
    // frequency policy in this experiment (see file comment).
    index::IndexConfig index_config;
    index_config.sketch = {15, 10};
    index_config.bucketBits = 16;
    index_config.discardTopFraction = 0.0;

    // Reads per chromosome proportional to length (chr1 takes the
    // rounding remainder) — uniform coverage across the skew.
    std::vector<uint32_t> counts(chromosomes.size());
    uint32_t assigned = 0;
    for (size_t c = 1; c < chromosomes.size(); ++c) {
        counts[c] = static_cast<uint32_t>(
            static_cast<uint64_t>(num_reads) *
            chromosomes[c].seq.size() / total_len);
        assigned += counts[c];
    }
    counts[0] = num_reads - assigned;

    // Build each chromosome, sample its reads, then free its sequence
    // and donor before the next one — the transient per-chromosome
    // donor coordinate map is the largest allocation of the whole
    // build and must not accumulate across 8 chromosomes.
    std::vector<core::PreprocessedChromosome> built;
    std::vector<std::string> read_names;
    std::vector<std::string> read_seqs;
    std::vector<eval::TruthRecord> truth;
    sim::ReadSimConfig read_config{read_len, num_reads,
                                   sim::ErrorProfile::pacbio(0.05)};
    read_config.revCompProbability = 0.25;
    const std::string profile = sim::profileLabel(read_config.errors);
    const double prep_sec = bench::timeSec([&] {
        for (size_t c = 0; c < chromosomes.size(); ++c) {
            auto &chromosome = chromosomes[c];
            const auto variants = sim::simulateVariants(
                chromosome.seq, sim::VariantConfig{}, rng);
            auto graph = graph::buildGraph(chromosome.seq, variants);
            {
                const sim::DonorGenome donor(chromosome.seq, variants,
                                             graph, 0.5, rng);
                sim::ReadSimConfig per_chromosome = read_config;
                per_chromosome.numReads = counts[c];
                const auto reads = counts[c] == 0
                                       ? std::vector<sim::SimRead>{}
                                       : sim::simulateReads(
                                             donor, per_chromosome, rng);
                for (const auto &read : reads) {
                    read_names.push_back(
                        "read" + std::to_string(read_names.size()));
                    read_seqs.push_back(read.seq);
                    truth.push_back(
                        {read_names.back(), chromosome.name,
                         read.donorStart, read.truthLinearStart,
                         read.reverseComplemented ? '-' : '+',
                         static_cast<uint32_t>(read.seq.size()),
                         read.plantedErrors, profile});
                }
            }
            chromosome.seq = std::string(); // free ~1/8 of the genome
            auto index =
                index::MinimizerIndex::build(graph, index_config);
            built.push_back({chromosome.name, std::move(graph),
                             std::move(index)});
        }
    });
    const core::PreprocessedReference reference(std::move(built));
    std::vector<std::string_view> reads(read_seqs.begin(),
                                        read_seqs.end());
    std::printf("built graphs+indexes and %zu x %u bp reads in %.1f s\n",
                reads.size(), read_len, prep_sec);

    const eval::AccuracyEvaluator evaluator(truth, eval::EvalConfig{});

    const int map_threads = static_cast<int>(std::min(
        8u, std::max(1u, std::thread::hardware_concurrency())));

    // Maps one leg and scores it against the truth set.
    const auto run_leg = [&](const core::PreprocessedReference &ref,
                             uint32_t cap, int threads,
                             uint64_t budget_bytes, const char *name,
                             core::ShardResidency::Stats *residency) {
        core::ShardedBatchConfig batch;
        batch.threads = threads;
        batch.memBudgetBytes = budget_bytes;
        const core::ShardedBatchMapper mapper(ref, pipelineConfig(cap),
                                              batch);
        Leg leg;
        const uint64_t rss_before = bench::currentRssBytes();
        uint64_t rss_peak = rss_before;
        // Batched like the CLI streams, sampling RSS between batches
        // so the budget legs observe what actually stays resident.
        constexpr size_t kBatch = 32;
        leg.results.reserve(reads.size());
        leg.sec = bench::timeSec([&] {
            for (size_t begin = 0; begin < reads.size();
                 begin += kBatch) {
                const size_t end =
                    std::min(reads.size(), begin + kBatch);
                auto part = mapper.mapBatch(
                    std::span<const std::string_view>(
                        reads.data() + begin, end - begin));
                for (auto &result : part)
                    leg.results.push_back(std::move(result));
                rss_peak = std::max(rss_peak, bench::currentRssBytes());
            }
        });
        leg.readsPerSec = static_cast<double>(reads.size()) / leg.sec;
        leg.rssDeltaBytes =
            rss_peak > rss_before ? rss_peak - rss_before : 0;
        const core::PafFormatter formatter(ref);
        std::vector<io::PafRecord> records;
        for (size_t i = 0; i < leg.results.size(); ++i) {
            if (auto record = formatter.record(
                    read_names[i], read_seqs[i].size(), leg.results[i]))
                records.push_back(std::move(*record));
        }
        leg.sensitivity =
            evaluator.evaluate(name, records).overall.sensitivity();
        if (residency != nullptr)
            *residency = mapper.residencyStats();
        return leg;
    };

    // --- leg 1 + 2: uncapped vs occurrence-capped seeding ------------
    const Leg uncapped =
        run_leg(reference, 0, map_threads, 0, "uncapped", nullptr);
    const Leg capped =
        run_leg(reference, max_occ, map_threads, 0, "capped", nullptr);
    const double speedup = capped.readsPerSec / uncapped.readsPerSec;

    std::printf("\n%-22s %10s %12s %12s\n", "leg", "seconds", "reads/s",
                "sensitivity");
    std::printf("%-22s %10.2f %12.1f %12.3f\n", "uncapped (cap 0)",
                uncapped.sec, uncapped.readsPerSec, uncapped.sensitivity);
    char capped_label[48];
    std::snprintf(capped_label, sizeof capped_label, "capped (cap %u)",
                  max_occ);
    std::printf("%-22s %10.2f %12.1f %12.3f   (%.1fx)\n", capped_label,
                capped.sec, capped.readsPerSec, capped.sensitivity,
                speedup);

    // --- leg 3 + 4: pack round trip, unbudgeted vs budgeted ----------
    const std::string pack_path =
        (std::filesystem::temp_directory_path() /
         ("bench_scale_" + std::to_string(getpid()) + ".segram"))
            .string();
    reference.save(pack_path);
    const uint64_t pack_bytes = std::filesystem::file_size(pack_path);

    // Budget: half the shard payload. With the budget legs' 2 workers
    // at most two shards are pinned at once (<= chr1+chr2 = 42% of the
    // payload on the 8/36 skew), so the budget is genuinely binding
    // but never forces a pinned overage.
    const int budget_threads = 2;
    const auto warm = core::PreprocessedReference::load(pack_path);
    uint64_t shard_total = 0;
    for (size_t c = 0; c < warm.numChromosomes(); ++c)
        shard_total += warm.shardBytes(c);
    const uint64_t budget = shard_total / 2;

    const Leg unbudgeted = run_leg(warm, max_occ, budget_threads, 0,
                                   "unbudgeted", nullptr);

    io::PackLoadOptions cold_options;
    cold_options.coldLoad = true;
    const auto cold =
        core::PreprocessedReference::load(pack_path, cold_options);
    core::ShardResidency::Stats residency;
    const Leg budgeted = run_leg(cold, max_occ, budget_threads, budget,
                                 "budgeted", &residency);
    std::filesystem::remove(pack_path);

    const auto mib = [](uint64_t bytes) {
        return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    std::printf("%-22s %10.2f %12.1f %12.3f   (pack warm)\n",
                "pack unbudgeted", unbudgeted.sec,
                unbudgeted.readsPerSec, unbudgeted.sensitivity);
    std::printf("%-22s %10.2f %12.1f %12.3f   (budget %.0f MiB)\n",
                "pack budgeted", budgeted.sec, budgeted.readsPerSec,
                budgeted.sensitivity, mib(budget));
    std::printf(
        "\npack %.0f MiB (%.0f MiB shard payload); budget %.0f MiB: "
        "%llu faults, %llu evictions, accounting peak %.0f MiB, "
        "RSS growth %.0f MiB (unbudgeted %.0f MiB)\n",
        mib(pack_bytes), mib(shard_total), mib(budget),
        static_cast<unsigned long long>(residency.faults),
        static_cast<unsigned long long>(residency.evictions),
        mib(residency.peakResidentBytes), mib(budgeted.rssDeltaBytes),
        mib(unbudgeted.rssDeltaBytes));
    const uint64_t peak_rss = bench::peakRssBytes();
    std::printf("process peak RSS (whole run incl. build): %.0f MiB\n",
                mib(peak_rss));

    // --- JSON before verdicts, so failures archive their numbers -----
    if (!json_path.empty()) {
        FILE *json = std::fopen(json_path.c_str(), "w");
        if (json == nullptr) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(
            json,
            "{\n"
            "  \"bench\": \"scale\",\n"
            "  \"quick\": %s,\n"
            "  \"genome_len\": %llu,\n"
            "  \"chromosomes\": %u,\n"
            "  \"planted_repeat_fraction\": %.4f,\n"
            "  \"reads\": %zu,\n"
            "  \"read_len\": %u,\n"
            "  \"max_occ\": %u,\n"
            "  \"map_threads\": %d,\n"
            "  \"prep_seconds\": %.2f,\n"
            "  \"uncapped\": {\"seconds\": %.3f, \"reads_per_sec\": "
            "%.2f, \"sensitivity\": %.4f},\n"
            "  \"capped\": {\"seconds\": %.3f, \"reads_per_sec\": %.2f, "
            "\"sensitivity\": %.4f},\n"
            "  \"cap_speedup\": %.2f,\n"
            "  \"pack_bytes\": %llu,\n"
            "  \"budget_bytes\": %llu,\n"
            "  \"budget_threads\": %d,\n"
            "  \"unbudgeted\": {\"seconds\": %.3f, \"rss_delta_bytes\": "
            "%llu},\n"
            "  \"budgeted\": {\"seconds\": %.3f, \"rss_delta_bytes\": "
            "%llu, \"faults\": %llu, \"evictions\": %llu, "
            "\"accounting_peak_bytes\": %llu},\n"
            "  \"peak_rss_bytes\": %llu\n"
            "}\n",
            quick ? "true" : "false",
            static_cast<unsigned long long>(total_len), num_chromosomes,
            planted_fraction, reads.size(), read_len, max_occ,
            map_threads, prep_sec, uncapped.sec, uncapped.readsPerSec,
            uncapped.sensitivity, capped.sec, capped.readsPerSec,
            capped.sensitivity, speedup,
            static_cast<unsigned long long>(pack_bytes),
            static_cast<unsigned long long>(budget), budget_threads,
            unbudgeted.sec,
            static_cast<unsigned long long>(unbudgeted.rssDeltaBytes),
            budgeted.sec,
            static_cast<unsigned long long>(budgeted.rssDeltaBytes),
            static_cast<unsigned long long>(residency.faults),
            static_cast<unsigned long long>(residency.evictions),
            static_cast<unsigned long long>(
                residency.peakResidentBytes),
            static_cast<unsigned long long>(peak_rss));
        std::fclose(json);
        std::printf("wrote %s\n", json_path.c_str());
    }

    // --- gates -------------------------------------------------------
    bool failed = false;
    if (planted_fraction < 0.10) {
        std::fprintf(stderr,
                     "FAIL: planted repeat fraction %.3f < 0.10\n",
                     planted_fraction);
        failed = true;
    }
    if (speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: capped seeding speedup %.2fx < 5x "
                     "(uncapped %.1f reads/s, capped %.1f reads/s)\n",
                     speedup, uncapped.readsPerSec, capped.readsPerSec);
        failed = true;
    }
    if (capped.sensitivity + 0.01 < uncapped.sensitivity) {
        std::fprintf(stderr,
                     "FAIL: capped sensitivity %.4f more than 1%% "
                     "below uncapped %.4f\n",
                     capped.sensitivity, uncapped.sensitivity);
        failed = true;
    }
    if (!sameResults(capped.results, unbudgeted.results) ||
        !sameResults(unbudgeted.results, budgeted.results)) {
        std::fprintf(stderr,
                     "FAIL: in-memory / pack-warm / pack-budgeted "
                     "results diverge\n");
        failed = true;
    }
    if (residency.peakResidentBytes > budget) {
        std::fprintf(stderr,
                     "FAIL: residency accounting peak %.0f MiB exceeds "
                     "the %.0f MiB budget\n",
                     mib(residency.peakResidentBytes), mib(budget));
        failed = true;
    }
    // Sampled process RSS growth must track the budget: allowance for
    // result vectors, workspaces, thread stacks and partial pages.
    const uint64_t allowance =
        std::max<uint64_t>(16ull * 1024 * 1024, budget / 8);
    if (budgeted.rssDeltaBytes > budget + allowance) {
        std::fprintf(stderr,
                     "FAIL: budgeted RSS growth %.0f MiB exceeds "
                     "budget %.0f MiB + allowance %.0f MiB\n",
                     mib(budgeted.rssDeltaBytes), mib(budget),
                     mib(allowance));
        failed = true;
    }
    if (budgeted.sec > 1.5 * unbudgeted.sec + 0.5) {
        std::fprintf(stderr,
                     "FAIL: budgeted run %.2f s exceeds 1.5x the "
                     "unbudgeted %.2f s\n",
                     budgeted.sec, unbudgeted.sec);
        failed = true;
    }
    if (failed)
        return 1;

    std::printf("\nAll scale gates passed: cap %.1fx >= 5x with "
                "sensitivity held, budget kept %.0f MiB resident of a "
                "%.0f MiB pack at %.2fx unbudgeted runtime.\n",
                speedup, mib(residency.peakResidentBytes),
                mib(pack_bytes), budgeted.sec / unbudgeted.sec);
    return 0;
}
