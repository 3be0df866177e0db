/**
 * @file
 * End-to-end batched mapping throughput: the BatchMapper driver over
 * the full SeGraM pipeline at 1/2/4/8 worker threads (capped at the
 * CPUs the process may use), against the plain single-thread mapRead
 * loop as the reference.
 *
 * This is the software analogue of the paper's channel scaling claim
 * (one MinSeed+BitAlign pair per HBM2E channel, linear scaling across
 * channels): workers share only the read-only graph+index, so reads/s
 * should scale with cores. The bench also re-verifies the determinism
 * contract — every thread count must produce bit-identical results —
 * so the measured speedup is a speedup of the *same* computation.
 *
 * Two gates ride along:
 *  - Allocation gate: a counting global operator new measures
 *    steady-state heap allocations per read on the workspace-driven
 *    hot path. Pre-workspace (PR 3) the pipeline performed ~11,080
 *    allocations per read; the gate requires at least the 10x drop
 *    the zero-allocation refactor promised (measured: ~1 per read,
 *    the returned result's owned CIGAR).
 *  - Throughput gate: the workspace loop must not be slower than 80%
 *    of the per-call-allocating loop (in practice it is >1.3x faster;
 *    the slack absorbs CI noise).
 *
 * Flags: --quick shrinks the dataset for CI smoke runs; --json PATH
 * writes the measurements as a JSON object so CI can archive the perf
 * trajectory (BENCH_*.json artifacts).
 *
 * Like every bench, fully deterministic inputs (fixed seeds).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/segram.h"
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

    bench::printHeader("Batched mapping throughput (BatchMapper)");

    const uint64_t genome_len = quick ? 150'000 : 400'000;
    const uint32_t num_reads = quick ? 60 : 200;
    const auto dataset = sim::makeDataset(bench::datasetConfig(genome_len));
    core::SegramConfig config;
    config.minseed.errorRate = 0.05;
    config.earlyExitFraction = 1.5;
    const core::SegramMapper mapper(dataset.graph, dataset.index, config);

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

    // Reference: the per-call-allocating mapRead loop (fresh workspace
    // every read) — what the pipeline did before the workspace
    // refactor. Also the determinism baseline for the batch runs.
    std::vector<core::MultiMapResult> reference;
    const double fresh_sec = bench::timeSec([&] {
        reference.reserve(reads.size());
        for (const auto read : reads) {
            core::MultiMapResult result;
            static_cast<core::MapResult &>(result) = mapper.mapRead(read);
            reference.push_back(std::move(result));
        }
    });
    const double fresh_rps =
        static_cast<double>(reads.size()) / fresh_sec;

    // Workspace loop: same computation out of one warm workspace. The
    // allocation window starts after a warm-up pass so buffer growth
    // does not count — the gate measures the steady state.
    core::MapWorkspace workspace;
    for (const auto read : reads)
        mapper.mapRead(read, nullptr, workspace);
    std::vector<core::MultiMapResult> ws_results;
    ws_results.reserve(reads.size());
    const unsigned long long allocs_before = g_allocations.load();
    const double ws_sec = bench::timeSec([&] {
        for (const auto read : reads) {
            core::MultiMapResult result;
            static_cast<core::MapResult &>(result) =
                mapper.mapRead(read, nullptr, workspace);
            ws_results.push_back(std::move(result));
        }
    });
    const unsigned long long allocs_after = g_allocations.load();
    const double ws_rps = static_cast<double>(reads.size()) / ws_sec;
    const double allocs_per_read =
        static_cast<double>(allocs_after - allocs_before) /
        static_cast<double>(reads.size());

    std::printf("%-14s %12s %14s %12s %10s\n", "config", "reads/s",
                "bases/s", "speedup", "identical");
    std::printf("%-14s %12.1f %14.0f %12s %10s\n", "fresh-ws(1T)",
                fresh_rps,
                static_cast<double>(total_bases) / fresh_sec, "1.00x",
                "ref");
    std::printf("%-14s %12.1f %14.0f %11.2fx %10s\n", "warm-ws(1T)",
                ws_rps, static_cast<double>(total_bases) / ws_sec,
                ws_rps / fresh_rps,
                sameResults(reference, ws_results) ? "yes" : "NO");
    // Determinism failures are recorded but deferred past the JSON
    // write, so even a diverging run archives its measurements.
    bool diverged = false;
    if (!sameResults(reference, ws_results)) {
        std::fprintf(stderr,
                     "FAIL: workspace loop results diverge from the "
                     "fresh-workspace reference\n");
        diverged = true;
    }

    // More workers than CPUs would measure time-slicing, not scaling.
    std::vector<int> thread_counts;
    for (const int threads : {1, 2, 4, 8}) {
        if (threads <= bench::usableCpus() && (!quick || threads <= 2))
            thread_counts.push_back(threads);
    }
    std::vector<double> batch_rps;
    for (const int threads : thread_counts) {
        core::BatchConfig batch_config;
        batch_config.threads = threads;
        const core::BatchMapper batch_mapper(mapper, batch_config);
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
                    sameResults(reference, results) ? "yes" : "NO");
        if (!sameResults(reference, results)) {
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

    // Stage breakdown of the warm-workspace loop: where the per-read
    // time goes (alignment dominates), attributed to the kernel
    // backend that produced it. Timed separately because collecting
    // PipelineStats adds clock reads to the hot path.
    core::PipelineStats stage_stats;
    for (const auto read : reads)
        mapper.mapRead(read, &stage_stats, workspace);
    const core::StageTimings &timings = stage_stats.timings;
    const double stage_total =
        timings.seedingSec + timings.linearizeSec + timings.alignSec;
    std::printf("\nstage breakdown (1T, backend %s): seeding %.3f s, "
                "linearization %.3f s, alignment %.3f s (%.1f%% of "
                "stage time)\n",
                bitops::activeBackendName(), timings.seedingSec,
                timings.linearizeSec, timings.alignSec,
                stage_total > 0.0 ? 100.0 * timings.alignSec / stage_total
                                  : 0.0);

    // Batched-path stage breakdown and lane occupancy: the same reads
    // through the single-thread lane-batched scheduler (BatchMapper ->
    // mapMany -> SegramMapper::mapReads). The alignment-stage ratio
    // against the per-read loop above is the kernel-level speedup the
    // cross-window batching claims, measured in-run on the same data.
    core::PipelineStats batched_stats;
    std::vector<core::MultiMapResult> batched_results;
    {
        const core::BatchMapper batch_mapper(mapper, core::BatchConfig{});
        batched_results = batch_mapper.mapBatch(
            std::span<const std::string_view>(reads), &batched_stats);
    }
    const core::StageTimings &batched = batched_stats.timings;
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
    const double align_speedup = batched.alignSec > 0.0
                                     ? timings.alignSec / batched.alignSec
                                     : 0.0;
    std::printf("batched stages (1T): seeding %.3f s, linearization "
                "%.3f s, alignment %.3f s\n",
                batched.seedingSec, batched.linearizeSec,
                batched.alignSec);
    std::printf("lane occupancy: %.2f windows/launch (%.0f%% of windows "
                "batched), alignment-stage speedup %.2fx\n",
                lane_occupancy, 100.0 * batched_fraction, align_speedup);
    if (!sameResults(reference, batched_results)) {
        std::fprintf(stderr, "FAIL: batched-scheduler results diverge "
                             "from the fresh-workspace reference\n");
        diverged = true;
    }

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
                     "  \"fresh_workspace_reads_per_sec\": %.2f,\n"
                     "  \"warm_workspace_reads_per_sec\": %.2f,\n"
                     "  \"allocs_per_read\": %.3f,\n"
                     "  \"pre_workspace_allocs_per_read\": %.0f,\n"
                     "  \"peak_rss_bytes\": %llu,\n"
                     "  \"stage_seconds\": {\"seeding\": %.4f, "
                     "\"linearization\": %.4f, \"alignment\": %.4f},\n",
                     fresh_rps, ws_rps,
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
        std::fprintf(json, "  \"batch_reads_per_sec\": {");
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
    if (ws_rps < 0.8 * fresh_rps) {
        std::fprintf(stderr,
                     "FAIL: warm-workspace loop (%.1f reads/s) is "
                     "slower than 80%% of the fresh-workspace loop "
                     "(%.1f reads/s)\n",
                     ws_rps, fresh_rps);
        return 1;
    }
    // --- lane-batching gate: the cross-window path must deliver its
    // claimed alignment-stage speedup where the wide backend runs.
    // Quick (CI smoke) runs are too short and too jittery to gate on.
    if (!quick &&
        std::strcmp(bitops::activeBackendName(), "avx2") == 0 &&
        align_speedup < 1.5) {
        std::fprintf(stderr,
                     "FAIL: lane-batched alignment stage is only "
                     "%.2fx the per-window stage (gate: 1.5x on "
                     "avx2)\n",
                     align_speedup);
        return 1;
    }

    std::printf(
        "\nWorkers share only the read-only graph+index (the paper's\n"
        "per-channel module isolation); speedup tracks physical cores.\n");
    return 0;
}
