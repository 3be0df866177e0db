/**
 * @file
 * End-to-end batched mapping throughput: the ShardedBatchMapper driver
 * over the full SeGraM pipeline on a one-chromosome reference at
 * 1/2/4/8 worker threads (capped at the CPUs the process may use),
 * against the plain single-thread mapRead loop as the reference.
 *
 * This is the software analogue of the paper's channel scaling claim
 * (one MinSeed+BitAlign pair per HBM2E channel, linear scaling across
 * channels): workers share only the read-only graph+index, so reads/s
 * should scale with cores. The bench also re-verifies the determinism
 * contract — every thread count must produce bit-identical results —
 * so the measured speedup is a speedup of the *same* computation.
 *
 * Three gates ride along, each on five interleaved repeats (the worst
 * repeat for allocations, the median for the timed ratios), so one
 * host hiccup cannot flip a verdict:
 *  - Allocation gate: a counting global operator new measures
 *    steady-state heap allocations per read on the workspace-driven
 *    hot path. Pre-workspace (PR 3) the pipeline performed ~11,080
 *    allocations per read; the gate requires at least the 10x drop
 *    the zero-allocation refactor promised (measured: ~1 per read,
 *    the returned result's owned CIGAR).
 *  - Throughput gate: the workspace loop must not be slower than 80%
 *    of the per-call-allocating loop.
 *  - Lane gate (AVX2, non-quick): the lane-batched scheduler's
 *    alignment stage must be >= 1.5x faster than the mapRead loop's,
 *    which runs the same kernel one window at a time.
 *
 * Flags: --quick shrinks the dataset for CI smoke runs; --json PATH
 * writes the measurements as a JSON object so CI can archive the perf
 * trajectory (BENCH_*.json artifacts).
 *
 * Like every bench, fully deterministic inputs (fixed seeds).
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/sim/read_sim.h"
#include "src/util/bitops_simd.h"

namespace
{

/**
 * Counting allocator: every successful global operator new bumps the
 * counter. Linked into this bench only — the library never overrides
 * the global allocator.
 */
std::atomic<unsigned long long> g_allocations{0};

} // namespace

void *
operator new(size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace segram;

/** Steady-state allocations/read of the pre-workspace pipeline (PR 3),
 *  measured with this same counting allocator before the refactor. */
constexpr double kPreWorkspaceAllocsPerRead = 11080.0;

/** Compact equality over everything a mapping run produces. */
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
            lhs[i].regionsTried != rhs[i].regionsTried ||
            lhs[i].reverseComplemented != rhs[i].reverseComplemented ||
            lhs[i].chromosome != rhs[i].chromosome ||
            lhs[i].cigar.toString() != rhs[i].cigar.toString())
            return false;
    }
    return true;
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
                         "usage: bench_throughput [--quick] "
                         "[--json out.json]\n");
            return 2;
        }
    }

    bench::printHeader("Batched mapping throughput (ShardedBatchMapper)");

    const uint64_t genome_len = quick ? 150'000 : 400'000;
    const uint32_t num_reads = quick ? 60 : 200;
    const auto dataset = sim::makeDataset(bench::datasetConfig(genome_len));
    const std::string chromosome = "chr1";
    std::vector<core::PreprocessedChromosome> chromosomes;
    chromosomes.push_back({chromosome, dataset.graph, dataset.index});
    const core::PreprocessedReference ref_tables(std::move(chromosomes));
    core::SegramConfig config;
    config.minseed.errorRate = 0.05;
    config.earlyExitFraction = 1.5;
    const core::SegramMapper mapper(ref_tables, 0, config);

    Rng rng(47);
    sim::ReadSimConfig read_config{1'000, num_reads,
                                   sim::ErrorProfile::pacbio(0.05)};
    const auto sim_reads =
        sim::simulateReads(dataset.donor, read_config, rng);
    std::vector<std::string_view> reads;
    reads.reserve(sim_reads.size());
    uint64_t total_bases = 0;
    for (const auto &read : sim_reads) {
        reads.push_back(read.seq);
        total_bases += read.seq.size();
    }
    std::printf("%zu reads x %u bp, genome %llu bp\n\n", reads.size(),
                read_config.readLen,
                static_cast<unsigned long long>(
                    dataset.graph.totalSeqLen()));

    // The loop results in the driver's terms, for the driver runs
    // only: a mapped read names the chromosome, an unmapped one is
    // reported as an empty result.
    const auto inDriverTerms =
        [&](std::vector<core::MultiMapResult> results) {
            for (auto &result : results) {
                if (result.mapped)
                    result.chromosome = chromosome;
                else
                    result = core::MultiMapResult{};
            }
            return results;
        };

    // The gated measurements, over kRepeats interleaved repeats so a
    // host hiccup lands in one repeat of one quantity, not in a whole
    // gate. Each repeat times, in order:
    //  - fresh: the per-call-allocating mapRead loop (fresh workspace
    //    every read) — what the pipeline did before the workspace
    //    refactor; its first repeat is the determinism baseline;
    //  - warm: the same loop out of one warm workspace, with the
    //    steady-state heap allocations counted;
    //  - the alignment stage of a warm mapRead pass and of the
    //    single-thread lane-batched scheduler (ShardedBatchMapper ->
    //    SegramMapper::mapMany) on the same reads. Their ratio is the
    //    kernel-level speedup the cross-window batching claims: four
    //    lanes against the same kernel run one window at a time.
    // Stage passes collect PipelineStats, whose clock reads would skew
    // the throughput loops, so they are timed separately.
    constexpr int kRepeats = 5;
    struct Repeat
    {
        double freshRps = 0.0, warmRps = 0.0, allocsPerRead = 0.0;
        core::StageTimings stage, batchedStage;
    };
    std::array<Repeat, kRepeats> repeats;
    std::vector<core::MultiMapResult> reference;
    std::vector<core::MultiMapResult> driver_reference;
    core::PipelineStats batched_stats; // last repeat's (counters only)
    core::MapWorkspace workspace;
    for (const auto read : reads) // warm-up: buffer growth is not timed
        mapper.mapRead(read, nullptr, workspace);
    const core::ShardedBatchMapper lane_mapper(ref_tables, config);
    // Determinism failures are recorded but deferred past the JSON
    // write, so even a diverging run archives its measurements.
    bool diverged = false;
    for (Repeat &rep : repeats) {
        std::vector<core::MultiMapResult> fresh;
        fresh.reserve(reads.size());
        rep.freshRps = static_cast<double>(reads.size()) /
                       bench::timeSec([&] {
                           for (const auto read : reads) {
                               core::MultiMapResult result;
                               static_cast<core::MapResult &>(result) =
                                   mapper.mapRead(read);
                               fresh.push_back(std::move(result));
                           }
                       });
        if (reference.empty()) {
            reference = fresh;
            driver_reference = inDriverTerms(reference);
        }

        std::vector<core::MultiMapResult> warm;
        warm.reserve(reads.size());
        const unsigned long long allocs_before = g_allocations.load();
        rep.warmRps = static_cast<double>(reads.size()) /
                      bench::timeSec([&] {
                          for (const auto read : reads) {
                              core::MultiMapResult result;
                              static_cast<core::MapResult &>(result) =
                                  mapper.mapRead(read, nullptr,
                                                 workspace);
                              warm.push_back(std::move(result));
                          }
                      });
        rep.allocsPerRead =
            static_cast<double>(g_allocations.load() - allocs_before) /
            static_cast<double>(reads.size());

        core::PipelineStats stage_stats;
        for (const auto read : reads)
            mapper.mapRead(read, &stage_stats, workspace);
        rep.stage = stage_stats.timings;

        batched_stats = {};
        const auto batched = lane_mapper.mapBatch(
            std::span<const std::string_view>(reads), &batched_stats);
        rep.batchedStage = batched_stats.timings;

        if (!sameResults(reference, fresh) ||
            !sameResults(reference, warm)) {
            std::fprintf(stderr, "FAIL: a mapRead loop diverges from the "
                                 "first fresh-workspace pass\n");
            diverged = true;
        }
        if (!sameResults(driver_reference, batched)) {
            std::fprintf(stderr, "FAIL: batched-scheduler results diverge "
                                 "from the fresh-workspace reference\n");
            diverged = true;
        }
    }

    const auto median = [&](auto &&get) {
        std::array<double, kRepeats> values;
        for (size_t i = 0; i < repeats.size(); ++i)
            values[i] = get(repeats[i]);
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    const auto warmOverFresh = [](const Repeat &rep) {
        return rep.warmRps / rep.freshRps;
    };
    const auto alignSpeedup = [](const Repeat &rep) {
        return rep.batchedStage.alignSec > 0.0
                   ? rep.stage.alignSec / rep.batchedStage.alignSec
                   : 0.0;
    };
    const double fresh_rps =
        median([](const Repeat &rep) { return rep.freshRps; });
    const double ws_rps =
        median([](const Repeat &rep) { return rep.warmRps; });
    const double warm_ratio = median(warmOverFresh);
    const double align_speedup = median(alignSpeedup);
    double allocs_per_read = 0.0; // worst repeat
    for (const Repeat &rep : repeats)
        allocs_per_read = std::max(allocs_per_read, rep.allocsPerRead);

    std::printf("%-8s %12s %12s %10s %12s %12s %10s\n", "repeat",
                "fresh r/s", "warm r/s", "warm/fresh", "align(1)",
                "align(4)", "speedup");
    for (size_t i = 0; i < repeats.size(); ++i) {
        const Repeat &rep = repeats[i];
        std::printf("%-8zu %12.1f %12.1f %9.2fx %11.4fs %11.4fs %9.2fx\n",
                    i, rep.freshRps, rep.warmRps, warmOverFresh(rep),
                    rep.stage.alignSec, rep.batchedStage.alignSec,
                    alignSpeedup(rep));
    }
    std::printf("%-8s %12.1f %12.1f %9.2fx %12s %12s %9.2fx\n\n",
                "median", fresh_rps, ws_rps, warm_ratio, "", "",
                align_speedup);

    // More workers than CPUs would measure time-slicing, not scaling.
    std::vector<int> thread_counts;
    for (const int threads : {1, 2, 4, 8}) {
        if (threads <= bench::usableCpus() && (!quick || threads <= 2))
            thread_counts.push_back(threads);
    }
    std::printf("%-14s %12s %14s %12s %10s\n", "config", "reads/s",
                "bases/s", "speedup", "identical");
    std::vector<double> batch_rps;
    for (const int threads : thread_counts) {
        core::ShardedBatchConfig batch_config;
        batch_config.threads = threads;
        const core::ShardedBatchMapper batch_mapper(ref_tables, config,
                                                    batch_config);
        std::vector<core::MultiMapResult> results;
        const double sec = bench::timeSec([&] {
            results = batch_mapper.mapBatch(
                std::span<const std::string_view>(reads));
        });
        const double rps = static_cast<double>(reads.size()) / sec;
        batch_rps.push_back(rps);
        char label[32];
        std::snprintf(label, sizeof label, "batch(%dT)", threads);
        std::printf("%-14s %12.1f %14.0f %11.2fx %10s\n", label, rps,
                    static_cast<double>(total_bases) / sec,
                    rps / fresh_rps,
                    sameResults(driver_reference, results) ? "yes"
                                                           : "NO");
        if (!sameResults(driver_reference, results)) {
            std::fprintf(stderr,
                         "FAIL: %d-thread batch results diverge from "
                         "the single-thread reference\n",
                         threads);
            diverged = true;
        }
    }

    std::printf("\nsteady-state heap allocations per read: %.2f "
                "(pre-workspace: %.0f)\n",
                allocs_per_read, kPreWorkspaceAllocsPerRead);

    const uint64_t peak_rss = bench::peakRssBytes();
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(peak_rss) / (1024.0 * 1024.0));

    // Stage breakdown of the median-speedup repeat: where the per-read
    // time goes (alignment dominates), attributed to the kernel
    // backend that produced it, plus the scheduler's lane occupancy.
    size_t typical_index = 0;
    for (size_t i = 0; i < repeats.size(); ++i) {
        if (alignSpeedup(repeats[i]) == align_speedup)
            typical_index = i;
    }
    const Repeat &typical = repeats[typical_index];
    const core::StageTimings &timings = typical.stage;
    const core::StageTimings &batched = typical.batchedStage;
    const double stage_total =
        timings.seedingSec + timings.linearizeSec + timings.alignSec;
    std::printf("\nstage breakdown (1T, backend %s): seeding %.3f s, "
                "linearization %.3f s, alignment %.3f s (%.1f%% of "
                "stage time)\n",
                bitops::activeBackendName(), timings.seedingSec,
                timings.linearizeSec, timings.alignSec,
                stage_total > 0.0 ? 100.0 * timings.alignSec / stage_total
                                  : 0.0);
    const double lane_occupancy =
        batched_stats.batchLaunches > 0
            ? static_cast<double>(batched_stats.batchedWindows) /
                  static_cast<double>(batched_stats.batchLaunches)
            : 0.0;
    const double batched_fraction =
        batched_stats.batchedWindows + batched_stats.scalarWindows > 0
            ? static_cast<double>(batched_stats.batchedWindows) /
                  static_cast<double>(batched_stats.batchedWindows +
                                      batched_stats.scalarWindows)
            : 0.0;
    std::printf("batched stages (1T): seeding %.3f s, linearization "
                "%.3f s, alignment %.3f s\n",
                batched.seedingSec, batched.linearizeSec,
                batched.alignSec);
    std::printf("lane occupancy: %.2f windows/launch (%.0f%% of windows "
                "batched), median alignment-stage speedup %.2fx\n",
                lane_occupancy, 100.0 * batched_fraction, align_speedup);

    // Write the measurements before any gate verdict, so a failing
    // run still archives the numbers that explain the failure.
    if (!json_path.empty()) {
        FILE *json = std::fopen(json_path.c_str(), "w");
        if (json == nullptr) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(json,
                     "{\n"
                     "  \"bench\": \"throughput\",\n"
                     "  \"quick\": %s,\n"
                     "  \"reads\": %zu,\n"
                     "  \"read_len\": %u,\n"
                     "  \"genome_len\": %llu,\n",
                     quick ? "true" : "false", reads.size(),
                     read_config.readLen,
                     static_cast<unsigned long long>(
                         dataset.graph.totalSeqLen()));
        bench::writeHostStampJson(json);
        std::fprintf(json,
                     "  \"repeats\": %d,\n"
                     "  \"fresh_workspace_reads_per_sec\": %.2f,\n"
                     "  \"warm_workspace_reads_per_sec\": %.2f,\n"
                     "  \"warm_over_fresh\": %.3f,\n"
                     "  \"allocs_per_read\": %.3f,\n"
                     "  \"pre_workspace_allocs_per_read\": %.0f,\n"
                     "  \"peak_rss_bytes\": %llu,\n"
                     "  \"stage_seconds\": {\"seeding\": %.4f, "
                     "\"linearization\": %.4f, \"alignment\": %.4f},\n",
                     kRepeats, fresh_rps, ws_rps, warm_ratio,
                     allocs_per_read, kPreWorkspaceAllocsPerRead,
                     static_cast<unsigned long long>(peak_rss),
                     timings.seedingSec, timings.linearizeSec,
                     timings.alignSec);
        std::fprintf(json,
                     "  \"batched_stage_seconds\": {\"seeding\": %.4f, "
                     "\"linearization\": %.4f, \"alignment\": %.4f},\n"
                     "  \"lane_occupancy\": %.3f,\n"
                     "  \"batched_window_fraction\": %.4f,\n"
                     "  \"align_stage_speedup\": %.3f,\n",
                     batched.seedingSec, batched.linearizeSec,
                     batched.alignSec, lane_occupancy, batched_fraction,
                     align_speedup);
        std::fprintf(json, "  \"repeat_runs\": [\n");
        for (size_t i = 0; i < repeats.size(); ++i) {
            const Repeat &rep = repeats[i];
            std::fprintf(json,
                         "    {\"fresh_workspace_reads_per_sec\": %.2f, "
                         "\"warm_workspace_reads_per_sec\": %.2f, "
                         "\"warm_over_fresh\": %.3f, "
                         "\"allocs_per_read\": %.3f, "
                         "\"align_seconds\": %.4f, "
                         "\"batched_align_seconds\": %.4f, "
                         "\"align_stage_speedup\": %.3f}%s\n",
                         rep.freshRps, rep.warmRps, warmOverFresh(rep),
                         rep.allocsPerRead, rep.stage.alignSec,
                         rep.batchedStage.alignSec, alignSpeedup(rep),
                         i + 1 < repeats.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n  \"batch_reads_per_sec\": {");
        for (size_t i = 0; i < thread_counts.size(); ++i)
            std::fprintf(json, "%s\"%d\": %.2f", i == 0 ? "" : ", ",
                         thread_counts[i], batch_rps[i]);
        std::fprintf(json, "}\n}\n");
        std::fclose(json);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (diverged)
        return 1;

    // --- allocation gate: the refactor's >= 10x drop must hold ---
    const double alloc_cap = kPreWorkspaceAllocsPerRead / 10.0;
    if (allocs_per_read > alloc_cap) {
        std::fprintf(stderr,
                     "FAIL: %.2f allocations/read exceeds the gate of "
                     "%.0f (pre-workspace baseline %.0f / 10)\n",
                     allocs_per_read, alloc_cap,
                     kPreWorkspaceAllocsPerRead);
        return 1;
    }
    // --- throughput gate: buffer reuse must not cost throughput ---
    if (warm_ratio < 0.8) {
        std::fprintf(stderr,
                     "FAIL: the warm-workspace loop runs at a median "
                     "%.2fx the fresh-workspace loop (gate: 0.8x)\n",
                     warm_ratio);
        return 1;
    }
    // --- lane-batching gate: the cross-window path must deliver its
    // claimed alignment-stage speedup where the wide backend runs.
    // Quick (CI smoke) runs are too short and too jittery to gate on.
    if (!quick &&
        std::strcmp(bitops::activeBackendName(), "avx2") == 0 &&
        align_speedup < 1.5) {
        std::fprintf(stderr,
                     "FAIL: lane-batched alignment stage is a median "
                     "%.2fx the one-lane stage (gate: 1.5x on avx2)\n",
                     align_speedup);
        return 1;
    }

    std::printf(
        "\nWorkers share only the read-only graph+index (the paper's\n"
        "per-channel module isolation); speedup tracks physical cores.\n");
    return 0;
}
