/**
 * @file
 * Google-benchmark microbenchmarks of the computational kernels: the
 * lane-batched BitAlign column (scalar vs the SIMD backend), the
 * minimizer sketch, MinSeed seeding, BitAlign window execution (graph
 * and chain), GenASM, Myers, and the DP oracle. These are the
 * building-block costs behind every end-to-end number in the other
 * benches.
 *
 * Usage: bench_kernels [--json OUT.json] [google-benchmark flags]
 * --json is shorthand for --benchmark_out=OUT.json
 * --benchmark_out_format=json. The active kernel backend is printed on
 * startup so recorded numbers are attributable to a backend.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/align/bitalign_core.h"
#include "src/align/window_batch.h"
#include "src/align/genasm.h"
#include "src/align/myers.h"
#include "src/baseline/dp_s2g.h"
#include "src/graph/linearize.h"
#include "src/index/minimizer_index.h"
#include "src/seed/chaining.h"
#include "src/seed/minimizer.h"
#include "src/seed/minseed.h"
#include "src/sim/dataset.h"
#include "src/util/bitops_simd.h"
#include "src/util/rng.h"

namespace
{

using namespace segram;

// ------------------------------------------------- bitops primitives
// The one kernel-table entry the product calls: batchColumn, one whole
// lane-batched recurrence column (k+1 levels of kBatchLanes windows),
// measured per backend at the 1- and 2-word widths of the mapping path
// and at 16 words (1 kbp patterns, the per-level generic branch).

std::vector<uint64_t>
benchWords(int nwords, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> words(static_cast<size_t>(nwords));
    for (auto &word : words)
        word = rng.nextU64();
    return words;
}

const bitops::KernelOps *
backendOps(int which)
{
    if (which == 0)
        return &bitops::scalarKernels();
    return bitops::simdKernels(); // nullptr when unavailable
}

void
BM_BitopsFusedCell(benchmark::State &state)
{
    const bitops::KernelOps *ops = backendOps(state.range(0));
    if (ops == nullptr) {
        state.SkipWithError("SIMD backend unavailable");
        return;
    }
    const int nwords = static_cast<int>(state.range(1));
    constexpr int kLevels = 33; // k = 32, the mapping path's edit cap
    const int row = nwords * bitops::kBatchLanes;
    const auto prev = benchWords(kLevels * row, 5);
    const auto pm = benchWords(row, 6);
    std::vector<uint64_t> col(static_cast<size_t>(kLevels * row));
    for (auto _ : state) {
        ops->batchColumn(col.data(), prev.data(), pm.data(), nwords,
                         kLevels);
        benchmark::DoNotOptimize(col.data());
        benchmark::ClobberMemory();
    }
    // One recurrence cell per level and lane.
    state.SetItemsProcessed(state.iterations() * kLevels *
                            bitops::kBatchLanes);
}

void
bitopsArgs(benchmark::internal::Benchmark *bench)
{
    for (int backend = 0; backend <= 1; ++backend)
        for (const int nwords : {1, 2, 16})
            bench->Args({backend, nwords});
    bench->ArgNames({"backend", "nwords"}); // backend 0=scalar 1=simd
}

BENCHMARK(BM_BitopsFusedCell)->Apply(bitopsArgs);

void
BM_ChainSeedsScratch(benchmark::State &state)
{
    Rng rng(99);
    const size_t count = static_cast<size_t>(state.range(0));
    std::vector<seed::SeedHit> hits;
    hits.reserve(count);
    for (size_t i = 0; i < count; ++i)
        hits.push_back({rng.nextBelow(1'000'000),
                        static_cast<uint32_t>(rng.nextBelow(1'000))});
    seed::ChainScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(seed::chainSeeds(
            std::span<const seed::SeedHit>(hits), {}, scratch));
    }
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ChainSeedsScratch)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

const sim::Dataset &
dataset()
{
    static const sim::Dataset instance = [] {
        sim::DatasetConfig config;
        config.genome.length = 200'000;
        config.index.sketch = {15, 10};
        config.index.bucketBits = 14;
        config.seed = 2022;
        return sim::makeDataset(config);
    }();
    return instance;
}

std::string
donorRead(size_t start, size_t len)
{
    return dataset().donor.seq().substr(start, len);
}

/**
 * The sketch over 64 distinct donor reads of range(0) bases, in turn:
 * one read repeated would let the branch predictor learn its k-mer
 * order, which no real read stream allows.
 */
void
BM_MinimizerSketch(benchmark::State &state)
{
    const auto len = static_cast<size_t>(state.range(0));
    constexpr size_t kReads = 64;
    std::vector<std::string> reads;
    for (size_t i = 0; i < kReads; ++i)
        reads.push_back(donorRead(1'000 + i * 2'000, len));
    const seed::SketchConfig config{15, 10};
    std::vector<seed::Minimizer> minimizers;
    seed::MinimizerScratch scratch;
    size_t next = 0;
    for (auto _ : state) {
        seed::computeMinimizers(reads[next], config, minimizers, scratch);
        benchmark::DoNotOptimize(minimizers.data());
        next = next + 1 == kReads ? 0 : next + 1;
    }
    state.SetBytesProcessed(state.iterations() * len);
    state.counters["per_base"] = benchmark::Counter(
        static_cast<double>(len),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_MinimizerSketch)->Arg(150)->Arg(1'000)->Arg(10'000);

/**
 * A 4 Mbp graph indexed like `segram index` (bucketBits 16), so the
 * three index levels span ~18 MB and a read's searches miss the
 * private caches, as they do on the mapping path. No repeats, like the
 * bench_e2e short_reads genome: about one seed per minimizer.
 */
const sim::Dataset &
largeDataset()
{
    static const sim::Dataset instance = [] {
        sim::DatasetConfig config;
        config.genome.length = 4'000'000;
        config.genome.repeatFraction = 0.0;
        config.index.sketch = {15, 10};
        config.index.bucketBits = 16;
        config.seed = 2022;
        return sim::makeDataset(config);
    }();
    return instance;
}

/**
 * MinSeed::seedRead (sketch, index search, region conversion) cycling
 * over 512 distinct reads of range(0) bases spread over the 4 Mbp
 * donor, so successive reads touch unrelated index lines.
 */
void
BM_SeedRead(benchmark::State &state)
{
    const auto &data = largeDataset();
    const auto len = static_cast<size_t>(state.range(0));
    const std::string &donor = data.donor.seq();
    constexpr size_t kReads = 512;
    const size_t stride = (donor.size() - len) / kReads;
    std::vector<std::string> reads;
    for (size_t i = 0; i < kReads; ++i)
        reads.push_back(donor.substr(i * stride, len));
    const seed::MinSeed minseed(data.graph, data.index);
    std::vector<seed::CandidateRegion> regions;
    seed::SeedScratch scratch;
    size_t next = 0;
    for (auto _ : state) {
        minseed.seedRead(reads[next], regions, scratch);
        benchmark::DoNotOptimize(regions.data());
        next = next + 1 == kReads ? 0 : next + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeedRead)->Arg(150)->Arg(5'000);

void
BM_BitAlignWindowGraph(benchmark::State &state)
{
    const auto &data = dataset();
    const int window = static_cast<int>(state.range(0));
    const uint64_t start = data.donor.toLinear(10'000);
    const auto region =
        graph::linearizeRange(data.graph, start, start + window + 32);
    const std::string read = donorRead(10'000, window);
    for (auto _ : state) {
        benchmark::DoNotOptimize(align::alignWindowDistanceOnly(
            region, read, window / 4));
    }
}
BENCHMARK(BM_BitAlignWindowGraph)->Arg(64)->Arg(128)->Arg(256);

void
BM_BitAlignWindowWithTraceback(benchmark::State &state)
{
    const auto &data = dataset();
    const int window = static_cast<int>(state.range(0));
    const uint64_t start = data.donor.toLinear(10'000);
    const auto region =
        graph::linearizeRange(data.graph, start, start + window + 32);
    const std::string read = donorRead(10'000, window);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            align::alignWindow(region, read, window / 4));
    }
}
BENCHMARK(BM_BitAlignWindowWithTraceback)->Arg(128);

/**
 * Shared fixture of the four-lane vs one-lane comparison: @p windows
 * independent window requests (distinct genome regions and read
 * chunks) of @p window_len characters, k = window_len/4 — the mapping
 * path's regime (128 -> 2-word vectors, 64 -> 1-word).
 */
struct WindowBatchFixture
{
    std::vector<graph::LinearizedGraph> regions;
    std::vector<std::string> patterns;
    std::vector<align::WindowedAlignStream::Request> requests;

    WindowBatchFixture(int windows, int window_len)
    {
        const auto &data = dataset();
        regions.reserve(static_cast<size_t>(windows));
        patterns.reserve(static_cast<size_t>(windows));
        for (int w = 0; w < windows; ++w) {
            const size_t offset = 10'000 + static_cast<size_t>(w) * 2'000;
            const uint64_t start = data.donor.toLinear(offset);
            regions.push_back(graph::linearizeRange(
                data.graph, start, start + window_len + 32));
            patterns.push_back(donorRead(offset, window_len));
        }
        for (int w = 0; w < windows; ++w)
            requests.push_back({regions[static_cast<size_t>(w)],
                                patterns[static_cast<size_t>(w)],
                                window_len / 4,
                                align::AlignMode::SemiGlobal});
    }
};

/** One window at a time: alignWindow, the batch kernel at one lane. */
void
BM_BitAlignWindowsPerWindow(benchmark::State &state)
{
    const int windows = static_cast<int>(state.range(0));
    const WindowBatchFixture fixture(windows,
                                     static_cast<int>(state.range(1)));
    align::AlignScratch scratch;
    align::WindowResult result;
    for (auto _ : state) {
        for (const auto &request : fixture.requests) {
            align::alignWindow(request.window, request.pattern, request.k,
                               request.mode, scratch, result);
            benchmark::DoNotOptimize(result.editDistance);
        }
    }
    state.SetItemsProcessed(state.iterations() * windows);
}

void
BM_BitAlignWindowsBatched(benchmark::State &state)
{
    const int windows = static_cast<int>(state.range(0));
    const WindowBatchFixture fixture(windows,
                                     static_cast<int>(state.range(1)));
    align::AlignScratch scratch;
    std::vector<align::WindowResult> results(
        static_cast<size_t>(windows));
    for (auto _ : state) {
        for (int base = 0; base < windows;
             base += bitops::kBatchLanes) {
            const int count =
                std::min(windows - base, bitops::kBatchLanes);
            const align::WindowedAlignStream::Request
                *requests[bitops::kBatchLanes];
            align::WindowResult *out[bitops::kBatchLanes];
            for (int i = 0; i < count; ++i) {
                requests[i] =
                    &fixture.requests[static_cast<size_t>(base + i)];
                out[i] = &results[static_cast<size_t>(base + i)];
            }
            align::alignWindowBatch(requests, out, count, scratch);
            benchmark::DoNotOptimize(results.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * windows);
}

void
windowBatchArgs(benchmark::internal::Benchmark *bench)
{
    for (const int windows : {2, 4, 8})
        for (const int window_len : {64, 128})
            bench->Args({windows, window_len});
    bench->ArgNames({"windows", "window_len"});
}

BENCHMARK(BM_BitAlignWindowsPerWindow)->Apply(windowBatchArgs);
BENCHMARK(BM_BitAlignWindowsBatched)->Apply(windowBatchArgs);

void
BM_GenAsm(benchmark::State &state)
{
    const auto &data = dataset();
    const std::string text = data.reference.substr(20'000, 1'200);
    const std::string read = data.reference.substr(20'050, 1'000);
    for (auto _ : state) {
        benchmark::DoNotOptimize(align::genAsmAlign(text, read, 64));
    }
}
BENCHMARK(BM_GenAsm);

void
BM_Myers(benchmark::State &state)
{
    const auto &data = dataset();
    const std::string text = data.reference.substr(20'000, 1'200);
    const std::string read = data.reference.substr(20'050, 64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(align::myersAlign(text, read));
    }
    state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Myers);

void
BM_DpGraphOracle(benchmark::State &state)
{
    const auto &data = dataset();
    const uint64_t start = data.donor.toLinear(10'000);
    const auto region =
        graph::linearizeRange(data.graph, start, start + 512);
    const std::string read = donorRead(10'000, 400);
    for (auto _ : state) {
        benchmark::DoNotOptimize(baseline::dpGraphDistance(region, read));
    }
}
BENCHMARK(BM_DpGraphOracle);

/** Region length is the argument: 200 is read-sized, so any fixed
 *  per-call cost shows there; 12,000 shows the per-character cost. */
void
BM_LinearizeRegion(benchmark::State &state)
{
    const auto &data = dataset();
    const auto len = static_cast<uint64_t>(state.range(0));
    graph::LinearizedGraph out;
    for (auto _ : state) {
        graph::linearizeRange(data.graph, 50'000, 50'000 + len - 1,
                              graph::kDefaultHopLimit, out);
        benchmark::DoNotOptimize(out.size());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(len));
}
BENCHMARK(BM_LinearizeRegion)->Arg(200)->Arg(12'000);

} // namespace

int
main(int argc, char **argv)
{
    // Translate the repo-conventional --json flag into the native
    // google-benchmark output flags before initialization.
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag;
    std::string format_flag = "--benchmark_out_format=json";
    for (size_t i = 1; i < args.size(); ++i) {
        if (std::strcmp(args[i], "--json") == 0 && i + 1 < args.size()) {
            out_flag = std::string("--benchmark_out=") + args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
            args.push_back(out_flag.data());
            args.push_back(format_flag.data());
            break;
        }
    }
    std::fprintf(stderr, "[bench_kernels] kernel backend: %s\n",
                 segram::bitops::activeBackendName());
    int out_argc = static_cast<int>(args.size());
    benchmark::Initialize(&out_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(out_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
