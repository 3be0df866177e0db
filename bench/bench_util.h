/**
 * @file
 * Shared helpers for the benchmark harnesses: canonical datasets
 * (long-read and short-read workloads mirroring the paper's Section 10
 * setup, scaled to synthetic genomes), wall-clock timing, workload
 * extraction for the hardware model, host stamps for bench JSON, and
 * table printing.
 *
 * All benches are deterministic: datasets come from fixed seeds.
 */

#ifndef SEGRAM_BENCH_BENCH_UTIL_H
#define SEGRAM_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "src/core/segram.h"
#include "src/hw/cycle_model.h"
#include "src/seed/minseed.h"
#include "src/sim/dataset.h"
#include "src/util/bitops_simd.h"

namespace segram::bench
{

/** Wall-clock seconds of @p fn. */
inline double
timeSec(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/**
 * Lifetime peak resident set size of this process in bytes (getrusage
 * ru_maxrss); 0 when the platform does not report it. A high-water
 * mark: it never decreases, so it reflects the largest phase of the
 * whole run, not the current working set.
 */
inline uint64_t
peakRssBytes()
{
#if defined(__linux__) || defined(__APPLE__)
    struct rusage usage
    {
    };
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(usage.ru_maxrss); // bytes on macOS
#else
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
    return 0;
#endif
}

/**
 * Current resident set size in bytes (sampled from /proc/self/statm);
 * 0 when unavailable. Unlike peakRssBytes this *does* go down when
 * pages are dropped, so sampling it across a mapping run observes what
 * a memory budget actually holds resident.
 */
inline uint64_t
currentRssBytes()
{
#if defined(__linux__)
    FILE *statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr)
        return 0;
    unsigned long long pages_total = 0;
    unsigned long long pages_resident = 0;
    const int fields =
        std::fscanf(statm, "%llu %llu", &pages_total, &pages_resident);
    std::fclose(statm);
    if (fields != 2)
        return 0;
    return static_cast<uint64_t>(pages_resident) *
           static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
#else
    return 0;
#endif
}

/**
 * CPUs this process may run on (what `nproc` prints: the affinity
 * mask on Linux, else the hardware concurrency); at least 1.
 */
inline int
usableCpus()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
#endif
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/** CPU model name from /proc/cpuinfo, or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "unknown" : line.substr(begin);
    }
    return "unknown";
}

/**
 * Writes the host stamp every bench JSON carries, as three top-level
 * members followed by a comma: "cpu_model", "nproc" and
 * "kernel_backend". Without it a committed figure cannot be compared
 * against one taken on another machine.
 */
inline void
writeHostStampJson(FILE *json)
{
    std::string model;
    for (const char c : cpuModel()) {
        if (c == '"' || c == '\\')
            model.push_back('\\');
        model.push_back(c);
    }
    std::fprintf(json,
                 "  \"cpu_model\": \"%s\",\n"
                 "  \"nproc\": %d,\n"
                 "  \"kernel_backend\": \"%s\",\n",
                 model.c_str(), usableCpus(), bitops::activeBackendName());
}

/** The canonical graph dataset used by the end-to-end benches. */
inline sim::DatasetConfig
datasetConfig(uint64_t genome_len, uint64_t seed = 20220618)
{
    sim::DatasetConfig config;
    config.genome.length = genome_len;
    config.genome.repeatFraction = 0.03;
    config.index.sketch = {15, 10};
    config.index.bucketBits = 16;
    config.seed = seed;
    return config;
}

/** One named read set (e.g. "PacBio-5%" or "Illumina-150bp"). */
struct ReadSet
{
    std::string name;
    sim::ReadSimConfig config;
};

/** The paper's four long-read datasets (Section 10), scaled in count. */
inline std::vector<ReadSet>
longReadSets(uint32_t read_len, uint32_t num_reads)
{
    return {
        {"PacBio-5%", {read_len, num_reads, sim::ErrorProfile::pacbio(0.05)}},
        {"PacBio-10%", {read_len, num_reads, sim::ErrorProfile::pacbio(0.10)}},
        {"ONT-5%", {read_len, num_reads, sim::ErrorProfile::ont(0.05)}},
        {"ONT-10%", {read_len, num_reads, sim::ErrorProfile::ont(0.10)}},
    };
}

/** The paper's three short-read datasets (Section 10). */
inline std::vector<ReadSet>
shortReadSets(uint32_t num_reads)
{
    return {
        {"Illumina-100bp", {100, num_reads, sim::ErrorProfile::illumina()}},
        {"Illumina-150bp", {150, num_reads, sim::ErrorProfile::illumina()}},
        {"Illumina-250bp", {250, num_reads, sim::ErrorProfile::illumina()}},
    };
}

/**
 * Extracts the hardware-model workload for a read set by running the
 * software MinSeed stage over the reads (measured, not guessed).
 */
inline hw::ReadWorkload
extractWorkload(const sim::Dataset &dataset,
                const std::vector<sim::SimRead> &reads, double error_rate)
{
    seed::MinSeedConfig config;
    config.errorRate = error_rate;
    config.mergeDuplicateRegions = false; // hardware aligns every seed
    const seed::MinSeed minseed(dataset.graph, dataset.index, config);
    seed::MinSeedStats stats;
    double region_chars = 0.0;
    for (const auto &read : reads) {
        const auto regions = minseed.seedRead(read.seq, &stats);
        for (const auto &region : regions)
            region_chars += static_cast<double>(region.end - region.start + 1);
    }
    hw::ReadWorkload workload;
    workload.readLen = static_cast<int>(reads.front().seq.size());
    const double n = static_cast<double>(reads.size());
    workload.seedsPerRead =
        std::max(1.0, static_cast<double>(stats.seedsFetched) / n);
    workload.minimizersPerRead =
        std::max(1.0, static_cast<double>(stats.minimizersComputed) / n);
    workload.seedHitsPerMinimizer =
        stats.minimizersKept == 0
            ? 1.0
            : static_cast<double>(stats.seedsFetched) /
                  static_cast<double>(stats.minimizersKept);
    // Subgraph bytes per seed: node records + 2-bit chars + edges,
    // approximated from the average region length (Fig. 5 layout).
    const double avg_region =
        stats.seedsFetched == 0
            ? 0.0
            : region_chars / static_cast<double>(stats.seedsFetched);
    workload.regionBytes = avg_region * (2.0 / 8.0) + 64.0;
    return workload;
}

/** Prints a horizontal rule + title. */
inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace segram::bench

#endif // SEGRAM_BENCH_BENCH_UTIL_H
