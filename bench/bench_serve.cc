/**
 * @file
 * Serving-path harness: the `segram serve` daemon against the offline
 * library driver on the same pack, gating the daemon's two contracts:
 *
 *  1. Fidelity — the PAF a client receives over the socket is
 *     byte-identical to what the offline path produces for the same
 *     reads, and stays identical while the pack is reloaded under
 *     concurrent traffic (zero dropped, zero duplicated, zero mutated
 *     responses across the swap).
 *
 *  2. Throughput — at saturation (4 concurrent clients streaming
 *     batches) the daemon sustains >= 0.9x the offline 4-thread
 *     mapping throughput: the protocol, admission queue and dispatch
 *     layers may cost at most 10%. Per-request p50/p99 latency is
 *     measured client-side and archived (the README quotes it).
 *     A second, small-request leg streams 8-read requests from the
 *     same 4 clients and reports its throughput and the dispatcher's
 *     coalescing factor (MAP requests per mapBatch, from STATS).
 *
 *  Also exercised: a client killed mid-request must leave the daemon
 *  serving everyone else (the resilience property the tentpole bugfix
 *  — EPIPE as a per-session event, not a process signal — buys).
 *
 * Flags: --quick shrinks the dataset for CI smoke runs; --json PATH
 * archives the measurements (BENCH_*.json artifacts).
 *
 * Like every bench, fully deterministic inputs (fixed seeds); the
 * latency/throughput numbers are machine-dependent, the fidelity
 * verdicts are not.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "src/core/reference.h"
#include "src/core/sharded_mapper.h"
#include "src/io/paf.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/dataset.h"
#include "src/sim/read_sim.h"
#include "src/util/rng.h"

namespace
{

using namespace segram;

constexpr size_t kBatchReads = 32;
constexpr size_t kSmallBatchReads = 8;
constexpr int kThreads = 4;
constexpr int kClients = 4;

/** Maps one batch with BUSY retries; returns the payload. */
serve::Reply
mapWithRetry(serve::ServeClient &client, const std::string &reference,
             const std::vector<serve::ReadRecord> &batch)
{
    for (int attempt = 0;; ++attempt) {
        serve::Reply reply = client.mapReads(reference, batch);
        if (reply.ok || reply.code != serve::kErrBusy)
            return reply;
        if (attempt > 1000) {
            std::fprintf(stderr, "FAIL: still BUSY after %d retries\n",
                         attempt);
            std::exit(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/**
 * Streams every batch through one connection in order, recording
 * per-request seconds; returns the concatenated payload.
 */
std::string
streamAllBatches(const std::string &socket_path,
                 const std::vector<std::vector<serve::ReadRecord>> &batches,
                 std::vector<double> *latencies)
{
    auto client = serve::ServeClient::connectUnixSocket(socket_path);
    std::string payload;
    for (const auto &batch : batches) {
        const auto start = std::chrono::steady_clock::now();
        const serve::Reply reply = mapWithRetry(client, "ref", batch);
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (!reply.ok) {
            std::fprintf(stderr, "FAIL: MAP error %s %s\n",
                         reply.code.c_str(), reply.message.c_str());
            std::exit(1);
        }
        if (latencies != nullptr)
            latencies->push_back(sec);
        payload += reply.payload;
    }
    return payload;
}

/** Splits @p reads into consecutive requests of @p size reads. */
std::vector<std::vector<serve::ReadRecord>>
splitRequests(const std::vector<serve::ReadRecord> &reads, size_t size)
{
    std::vector<std::vector<serve::ReadRecord>> requests;
    for (size_t i = 0; i < reads.size(); i += size)
        requests.emplace_back(
            reads.begin() + static_cast<ptrdiff_t>(i),
            reads.begin() + static_cast<ptrdiff_t>(
                                std::min(i + size, reads.size())));
    return requests;
}

/** The integer value of @p key in a STATS payload (0 when absent). */
uint64_t
statCounter(const std::string &stats, std::string_view key)
{
    for (size_t pos = 0; pos < stats.size();) {
        size_t end = stats.find('\n', pos);
        if (end == std::string::npos)
            end = stats.size();
        const std::string_view line(stats.data() + pos, end - pos);
        if (line.size() > key.size() && line.starts_with(key) &&
            line[key.size()] == ' ')
            return std::strtoull(
                std::string(line.substr(key.size() + 1)).c_str(),
                nullptr, 10);
        pos = end + 1;
    }
    return 0;
}

double
percentile(std::vector<double> sorted, double quantile)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(
        quantile * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
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
                         "usage: bench_serve [--quick] "
                         "[--json out.json]\n");
            return 2;
        }
    }

    bench::printHeader("Mapping daemon (bench_serve)");

    const uint64_t genome_len = quick ? 1'000'000 : 4'000'000;
    const uint32_t num_reads = quick ? 192 : 576;
    const uint32_t read_len = 1'000;

    // --- dataset + pack ----------------------------------------------
    const auto dataset =
        sim::makeDataset(bench::datasetConfig(genome_len));
    Rng rng(20220618);
    sim::ReadSimConfig read_config{read_len, num_reads,
                                   sim::ErrorProfile::pacbio(0.05)};
    read_config.revCompProbability = 0.25;
    const auto sim_reads =
        sim::simulateReads(dataset.donor, read_config, rng);

    std::vector<serve::ReadRecord> reads;
    for (size_t i = 0; i < sim_reads.size(); ++i)
        reads.push_back({"read" + std::to_string(i),
                         sim_reads[i].seq});
    const auto batches = splitRequests(reads, kBatchReads);

    const auto dir =
        std::filesystem::temp_directory_path() /
        ("segram_bench_serve_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string pack_path = (dir / "ref.segram").string();
    const std::string socket_path = (dir / "sv.sock").string();
    {
        std::vector<core::PreprocessedChromosome> chromosomes;
        chromosomes.push_back({"chr1", dataset.graph, dataset.index});
        core::PreprocessedReference(std::move(chromosomes))
            .save(pack_path);
    }
    std::printf("genome %llu bp, %zu reads x %u bp (%zu batches of "
                "%zu), %d mapping threads, %d clients\n",
                static_cast<unsigned long long>(genome_len),
                reads.size(), read_len, batches.size(), kBatchReads,
                kThreads, kClients);

    // --- offline leg: the library driver on the same pack ------------
    serve::ServiceConfig service_config;
    service_config.batch.threads = kThreads;
    std::string offline_paf;
    double offline_sec = 0.0;
    {
        const auto reference =
            core::PreprocessedReference::load(pack_path,
                                              service_config.load);
        const core::ShardedBatchMapper mapper(
            reference, service_config.segram, service_config.batch);
        std::vector<std::string_view> seqs;
        for (const auto &read : reads)
            seqs.push_back(read.seq);
        // Warmup pass: fault the mmap'd tables in, as the daemon's
        // load does, so the timed pass measures mapping.
        mapper.mapBatch(std::span<const std::string_view>(seqs));
        std::vector<core::MultiMapResult> results;
        offline_sec = bench::timeSec([&] {
            results = mapper.mapBatch(
                std::span<const std::string_view>(seqs));
        });
        for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].mapped)
                continue;
            io::formatPaf(
                offline_paf,
                io::makePafRecord(
                    reads[i].name, reads[i].seq.size(),
                    results[i].reverseComplemented ? '-' : '+',
                    results[i].chromosome,
                    reference.graph(0).totalSeqLen(),
                    results[i].linearStart, results[i].cigar));
        }
    }
    const double offline_rps =
        static_cast<double>(reads.size()) / offline_sec;
    std::printf("offline: %.3f s (%.1f reads/s)\n", offline_sec,
                offline_rps);

    // --- daemon ------------------------------------------------------
    serve::ServiceRegistry registry;
    registry.add(std::make_shared<serve::MappingService>(
        "ref", pack_path, service_config));
    serve::ServerConfig server_config;
    server_config.unixPath = socket_path;
    serve::Server server(registry, server_config);
    server.start();

    // Identity leg: one sequential client; concatenated responses must
    // equal the offline bytes (also warms the daemon's service).
    std::vector<double> sequential_latencies;
    const std::string served_paf =
        streamAllBatches(socket_path, batches, &sequential_latencies);
    const bool identical = served_paf == offline_paf;
    std::printf("identity: daemon PAF %s offline (%zu bytes)\n",
                identical ? "==" : "!=", served_paf.size());

    // Saturation leg: kClients concurrent connections each streaming
    // the full batch list; aggregate throughput vs the offline driver.
    std::vector<std::vector<double>> client_latencies(kClients);
    std::atomic<bool> mismatch{false};
    const double saturated_sec = bench::timeSec([&] {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                const std::string payload = streamAllBatches(
                    socket_path, batches, &client_latencies[c]);
                if (payload != offline_paf)
                    mismatch.store(true);
            });
        }
        for (auto &thread : clients)
            thread.join();
    });
    const double saturated_rps =
        static_cast<double>(reads.size()) * kClients / saturated_sec;
    const double throughput_ratio = saturated_rps / offline_rps;
    std::vector<double> all_latencies;
    for (const auto &list : client_latencies)
        all_latencies.insert(all_latencies.end(), list.begin(),
                             list.end());
    const double p50_ms = percentile(all_latencies, 0.5) * 1e3;
    const double p99_ms = percentile(all_latencies, 0.99) * 1e3;
    std::printf("saturation: %d clients, %.3f s, %.1f reads/s "
                "(%.2fx offline), request p50 %.1f ms, p99 %.1f ms\n",
                kClients, saturated_sec, saturated_rps,
                throughput_ratio, p50_ms, p99_ms);

    // Small-request leg: the same clients streaming 8-read requests.
    // One such request fills a single 8-read chunk of the mapper's
    // pool, so throughput here rests on the dispatcher coalescing
    // requests queued behind each other into one mapBatch.
    const auto small_batches = splitRequests(reads, kSmallBatchReads);
    auto stats_client =
        serve::ServeClient::connectUnixSocket(socket_path);
    const std::string stats_before = stats_client.stats().payload;
    const double small_sec = bench::timeSec([&] {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&] {
                const std::string payload = streamAllBatches(
                    socket_path, small_batches, nullptr);
                if (payload != offline_paf)
                    mismatch.store(true);
            });
        }
        for (auto &thread : clients)
            thread.join();
    });
    const double small_rps =
        static_cast<double>(reads.size()) * kClients / small_sec;
    const std::string stats_after = stats_client.stats().payload;
    const auto delta = [&](std::string_view key) {
        return static_cast<double>(statCounter(stats_after, key) -
                                   statCounter(stats_before, key));
    };
    const double coalescing = delta("server.map_requests") /
                              std::max(1.0, delta("server.map_batches"));
    std::printf("small requests: %d clients x %zu-read requests, "
                "%.3f s, %.1f reads/s, %.2f requests per mapBatch\n",
                kClients, kSmallBatchReads, small_sec, small_rps,
                coalescing);

    // --- reload under load -------------------------------------------
    std::atomic<bool> stop_traffic{false};
    std::atomic<uint64_t> reload_mismatches{0};
    std::atomic<uint64_t> reload_completed{0};
    std::vector<std::thread> traffic;
    for (int c = 0; c < 2; ++c) {
        traffic.emplace_back([&] {
            auto client =
                serve::ServeClient::connectUnixSocket(socket_path);
            while (!stop_traffic.load()) {
                const serve::Reply reply =
                    mapWithRetry(client, "ref", batches[0]);
                if (!reply.ok)
                    reload_mismatches.fetch_add(1);
                else if (reply.payload !=
                         std::string_view(offline_paf)
                             .substr(0, reply.payload.size()))
                    reload_mismatches.fetch_add(1);
                else
                    reload_completed.fetch_add(1);
            }
        });
    }
    bool reloads_ok = true;
    {
        auto admin = serve::ServeClient::connectUnixSocket(socket_path);
        for (int r = 0; r < 3; ++r) {
            const serve::Reply reply = admin.reload("ref", pack_path);
            reloads_ok = reloads_ok && reply.ok;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }
    while (reload_completed.load() < 8)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop_traffic.store(true);
    for (auto &thread : traffic)
        thread.join();
    std::printf("reload under load: 3 reloads %s, %llu responses, "
                "%llu mismatches\n",
                reloads_ok ? "OK" : "FAILED",
                static_cast<unsigned long long>(
                    reload_completed.load()),
                static_cast<unsigned long long>(
                    reload_mismatches.load()));

    // --- client killed mid-request ------------------------------------
    bool resilient = false;
    {
        serve::UniqueFd dying = serve::connectUnix(socket_path);
        serve::sendAll(dying.get(), "MAP ref 8\nr0\tACGTAC");
    } // half a payload, then gone
    {
        auto probe = serve::ServeClient::connectUnixSocket(socket_path);
        resilient = probe.ping().ok &&
                    mapWithRetry(probe, "ref", batches[0]).ok;
    }
    std::printf("client kill mid-request: daemon %s serving\n",
                resilient ? "kept" : "STOPPED");

    server.stop();
    std::filesystem::remove_all(dir);

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
            "  \"bench\": \"serve\",\n"
            "  \"quick\": %s,\n"
            "  \"genome_len\": %llu,\n"
            "  \"reads\": %zu,\n"
            "  \"read_len\": %u,\n"
            "  \"batch_reads\": %zu,\n"
            "  \"map_threads\": %d,\n"
            "  \"clients\": %d,\n"
            "  \"offline\": {\"seconds\": %.3f, \"reads_per_sec\": "
            "%.2f},\n"
            "  \"daemon_identical\": %s,\n"
            "  \"saturation\": {\"seconds\": %.3f, \"reads_per_sec\": "
            "%.2f, \"vs_offline\": %.3f},\n"
            "  \"small_requests\": {\"batch_reads\": %zu, "
            "\"seconds\": %.3f, \"reads_per_sec\": %.2f, "
            "\"requests_per_map_batch\": %.2f},\n"
            "  \"concurrent_identical\": %s,\n"
            "  \"latency_p50_ms\": %.2f,\n"
            "  \"latency_p99_ms\": %.2f,\n"
            "  \"reloads_ok\": %s,\n"
            "  \"reload_responses\": %llu,\n"
            "  \"reload_mismatches\": %llu,\n"
            "  \"client_kill_resilient\": %s\n"
            "}\n",
            quick ? "true" : "false",
            static_cast<unsigned long long>(genome_len), reads.size(),
            read_len, kBatchReads, kThreads, kClients, offline_sec,
            offline_rps, identical ? "true" : "false", saturated_sec,
            saturated_rps, throughput_ratio, kSmallBatchReads,
            small_sec, small_rps, coalescing,
            mismatch.load() ? "false" : "true", p50_ms, p99_ms,
            reloads_ok ? "true" : "false",
            static_cast<unsigned long long>(reload_completed.load()),
            static_cast<unsigned long long>(reload_mismatches.load()),
            resilient ? "true" : "false");
        std::fclose(json);
        std::printf("wrote %s\n", json_path.c_str());
    }

    // --- gates -------------------------------------------------------
    bool failed = false;
    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: daemon PAF not byte-identical to the "
                     "offline driver\n");
        failed = true;
    }
    if (mismatch.load()) {
        std::fprintf(stderr,
                     "FAIL: a concurrent client's PAF is not "
                     "byte-identical to the offline driver\n");
        failed = true;
    }
    if (throughput_ratio < 0.9) {
        std::fprintf(stderr,
                     "FAIL: saturated daemon throughput %.2fx offline "
                     "< 0.9x (%.1f vs %.1f reads/s)\n",
                     throughput_ratio, saturated_rps, offline_rps);
        failed = true;
    }
    if (!reloads_ok || reload_mismatches.load() != 0) {
        std::fprintf(stderr,
                     "FAIL: reload under load dropped or corrupted "
                     "responses (%llu mismatches)\n",
                     static_cast<unsigned long long>(
                         reload_mismatches.load()));
        failed = true;
    }
    if (!resilient) {
        std::fprintf(stderr,
                     "FAIL: daemon stopped serving after a client "
                     "died mid-request\n");
        failed = true;
    }
    std::printf("%s\n", failed ? "BENCH FAILED" : "BENCH OK");
    return failed ? 1 : 0;
}
