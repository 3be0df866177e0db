/**
 * @file
 * bench_e2e — one seeded command that measures `segram map` and
 * `segram serve` end to end, and layer by layer.
 *
 *   bench_e2e --workload NAME|all --seed N [--seconds S] [--trace 0|1]
 *             [--trace-dir DIR] [--json OUT] [--smoke]
 *
 * Each run generates the workload's inputs from --seed (FASTA + VCF,
 * FASTQ, truth TSV; untimed), then drives the real binaries as child
 * processes — `segram index`, `segram map`, and `segram serve` with an
 * in-process client — and checks every output it gets back: PAF bytes
 * stable across runs and thread counts, daemon replies equal to the
 * offline command, and sensitivity against the simulate truth above a
 * per-workload floor.
 *
 * With --trace 0 the run reports the end-to-end metrics (what a user
 * of the CLI or the daemon sees). With --trace 1 it instead replays
 * the `segram map` loop in-process — the same public calls the CLI
 * makes — with a span around each call into a layer, reports the
 * per-layer metrics, and writes one Chrome-trace JSON per workload.
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Human-readable detail, with sample counts and the host stamp, goes
 * to stderr. Exit status: 0 when every check passed, 1 otherwise.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "e2e/inputs.h"
#include "e2e/process.h"
#include "e2e/stats.h"
#include "e2e/trace.h"
#include "src/core/reference.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"
#include "src/io/fastx.h"
#include "src/io/paf.h"
#include "src/serve/client.h"
#include "src/util/bitops_simd.h"

namespace
{

using namespace segram;
using namespace segram::e2e;

/** Mapping threads of every run and client connections of serve. */
constexpr int kThreads = 4;
/** Repeats of each set-up measurement; the median is reported. */
constexpr int kSetupRepeats = 3;
constexpr double kChildTimeoutSec = 120.0;
/** Seconds a workload may take beyond --seconds before it is killed. */
constexpr unsigned kSlackSec = 150;
/** Closed-loop serve throughput is the median over windows this long. */
constexpr double kWindowSec = 0.5;
/** `segram map`'s default --batch. */
constexpr size_t kCliBatch = 256;

struct Options
{
    std::string workload = "all";
    uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    bool smoke = false;
    std::string traceDir = ".bench_build/traces";
    std::string jsonPath;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one workload run reports. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    uint64_t pafFnv = 0;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Counts one operation (child run, request); false fails it. */
    bool
    operation(bool ok, const std::string &what)
    {
        ++attempted;
        return check(ok, what);
    }

    /** A correctness check on outputs already counted as operations. */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            ++failed;
            std::fprintf(stderr, "[bench_e2e] FAIL: %s\n", what.c_str());
        }
        return ok;
    }
};

/** One workload run: its spec, inputs, work directory and results. */
struct Run
{
    const Options &options;
    Spawner &spawner;
    const WorkloadSpec &spec;
    std::string dir;
    Inputs inputs;
    std::string pack;
    Outcome outcome;
    TraceRecorder *trace = nullptr; ///< set on traced runs only

    std::string path(const std::string &file) const { return dir + "/" + file; }
};

/** Removes the work directory on every exit path. */
struct WorkDir
{
    std::string path;

    explicit WorkDir(std::string dir) : path(std::move(dir))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~WorkDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
};

std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

// ---------------------------------------------------------------- CLI

std::vector<std::string>
mapArgs(const Run &run, int threads, const std::string &reads,
        size_t batch = kCliBatch)
{
    std::vector<std::string> argv = {SEGRAM_CLI_PATH, "map", "--threads",
                                     std::to_string(threads)};
    if (batch != kCliBatch)
        argv.insert(argv.end(), {"--batch", std::to_string(batch)});
    if (run.spec.maxOcc != 0)
        argv.insert(argv.end(),
                    {"--max-occ", std::to_string(run.spec.maxOcc)});
    argv.insert(argv.end(),
                {run.pack, reads, formatDouble(run.spec.errorRate)});
    return argv;
}

ChildResult
runCli(Run &run, const std::vector<std::string> &argv,
       const std::string &stdout_path, const std::string &what)
{
    const ChildResult result =
        runChild(run.spawner, argv, stdout_path, run.path("cli.err"),
                 kChildTimeoutSec);
    run.outcome.operation(result.ok(),
                          what + " (exit " +
                              std::to_string(result.exitCode) +
                              (result.timedOut ? ", timed out)" : ")"));
    return result;
}

/** Median wall of kSetupRepeats `segram index` runs; leaves the pack. */
double
medianIndexSeconds(Run &run)
{
    std::vector<double> walls;
    for (int i = 0; i < kSetupRepeats; ++i)
        walls.push_back(runCli(run,
                               {SEGRAM_CLI_PATH, "index", run.inputs.fasta,
                                run.inputs.vcf, run.pack},
                               "/dev/null", "segram index")
                            .wallSec);
    return median(walls);
}

/** Calls @p fn on each line of @p text, its '\n' included. */
template <typename Fn>
void
forEachLine(std::string_view text, Fn fn)
{
    size_t pos = 0;
    while (pos < text.size()) {
        const size_t eol = text.find('\n', pos);
        const size_t next =
            eol == std::string_view::npos ? text.size() : eol + 1;
        fn(text.substr(pos, next - pos));
        pos = next;
    }
}

/** Index of read "r<i>" named by a PAF line. */
size_t
readIndex(std::string_view paf_line)
{
    return std::strtoull(paf_line.data() + 1, nullptr, 10);
}

/** The lines of @p paf whose read index is below @p reads. */
std::string
pafForReads(std::string_view paf, size_t reads)
{
    std::string out;
    forEachLine(paf, [&](std::string_view line) {
        if (readIndex(line) < reads)
            out.append(line);
    });
    return out;
}

/** PAF line(s) of each read index, from a full-run PAF. */
std::unordered_map<size_t, std::string>
pafByRead(std::string_view paf)
{
    std::unordered_map<size_t, std::string> lines;
    forEachLine(paf, [&](std::string_view line) {
        lines[readIndex(line)].append(line);
    });
    return lines;
}

/** Sensitivity of @p paf against the truth of the first @p reads. */
double
sensitivity(const Run &run, std::string_view paf, size_t reads)
{
    std::vector<io::PafRecord> records;
    forEachLine(paf, [&](std::string_view line) {
        if (line.back() == '\n')
            line.remove_suffix(1);
        records.push_back(io::parsePafLine(line));
    });
    const eval::AccuracyEvaluator evaluator(
        {run.inputs.truth.begin(),
         run.inputs.truth.begin() + static_cast<ptrdiff_t>(reads)});
    return evaluator.evaluate("segram", records).overall.sensitivity();
}

// -------------------------------------------------------------- serve

/** Key/value pairs of a STATS reply (numeric values only). */
std::map<std::string, double>
statsSnapshot(serve::ServeClient &client)
{
    std::map<std::string, double> values;
    forEachLine(client.stats().payload, [&](std::string_view view) {
        const std::string line(view.substr(0, view.find('\n')));
        const size_t space = line.find(' ');
        if (space == std::string::npos)
            return;
        char *end = nullptr;
        const double value = std::strtod(line.c_str() + space + 1, &end);
        if (end != line.c_str() + space + 1 && *end == '\0')
            values[line.substr(0, space)] = value;
    });
    return values;
}

/** A running `segram serve --threads 4` over the run's pack. */
struct Daemon
{
    std::unique_ptr<Child> child;
    std::string socket;
    double readySec = 0.0; ///< spawn until the first PING returned OK
};

Daemon
startDaemon(const Run &run)
{
    Daemon daemon;
    // Relative to the checkout: unix socket paths are length-limited.
    daemon.socket = run.path("sv.sock");
    daemon.child = std::make_unique<Child>(
        run.spawner,
        std::vector<std::string>{SEGRAM_CLI_PATH, "serve", "--socket",
                                 daemon.socket, "--threads",
                                 std::to_string(kThreads), "--error-rate",
                                 formatDouble(run.spec.errorRate),
                                 "ref=" + run.pack},
        "/dev/null", run.path("daemon.err"));
    while (true) {
        try {
            auto client = serve::ServeClient::connectUnixSocket(daemon.socket);
            if (client.ping().ok)
                break;
        } catch (const std::exception &) {
            // Not listening yet.
        }
        if (secondsSince(daemon.child->started()) > 60.0)
            throw std::runtime_error("segram serve did not answer PING");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    daemon.readySec = secondsSince(daemon.child->started());
    return daemon;
}

/** SIGTERM (graceful drain) and reap; returns how the daemon ended. */
ChildResult
stopDaemon(Run &run, Daemon &daemon)
{
    daemon.child->signal(SIGTERM);
    const ChildResult result = daemon.child->wait(30.0);
    run.outcome.operation(result.ok(), "segram serve exit after SIGTERM");
    return result;
}

/** One MAP request of a serve phase. */
struct Request
{
    size_t first = 0; ///< index of its first read in run.inputs.records
    size_t count = 0;
    double dueSec = 0.0; ///< open loop: send time after the phase start
    Clock::time_point due{};
    Clock::time_point sent{};
    Clock::time_point replied{};
    bool done = false;
    bool ok = false;
    int connection = 0;
    std::string payload; ///< PAF lines, or the error code
};

/** A finished phase: its requests and its wall-clock window. */
struct Phase
{
    std::string name;
    std::vector<Request> requests; ///< only those that were sent
    Clock::time_point start{};
    Clock::time_point end{};
    std::map<std::string, double> before;
    std::map<std::string, double> after;

    size_t
    reads() const
    {
        size_t total = 0;
        for (const auto &request : requests)
            total += request.count;
        return total;
    }

    double
    readsPerSec() const
    {
        return static_cast<double>(reads()) / secondsBetween(start, end);
    }

    /** Median over the phase's whole @p window-second windows of the
     *  reads answered in each: a burst from another tenant costs one
     *  window, not the whole phase. */
    double
    windowedReadsPerSec(double window) const
    {
        const auto windows = static_cast<size_t>(
            secondsBetween(start, end) / window);
        if (windows == 0)
            return readsPerSec();
        std::vector<double> rates(windows, 0.0);
        for (const auto &request : requests) {
            const auto w = static_cast<size_t>(
                secondsBetween(start, request.replied) / window);
            if (w < windows)
                rates[w] += static_cast<double>(request.count) / window;
        }
        return median(rates);
    }

    /** Latencies (ms) from the due time (the send time when unpaced). */
    std::vector<double>
    latenciesMs() const
    {
        std::vector<double> out;
        for (const auto &request : requests)
            out.push_back(secondsBetween(request.due, request.replied) *
                          1e3);
        return out;
    }

    /** Send lag (ms): how late the generator sent each request. */
    std::vector<double>
    lagsMs() const
    {
        std::vector<double> out;
        for (const auto &request : requests)
            out.push_back(secondsBetween(request.due, request.sent) * 1e3);
        return out;
    }
};

/**
 * Sends @p requests over @p connections connections of one process.
 * Paced (open loop): each request waits for its due time, then for a
 * free connection, so a slow server makes later requests late rather
 * than fewer. Unpaced (closed loop): each connection sends its next
 * request as soon as the previous reply arrives, until @p max_sec.
 */
Phase
drive(Run &run, const Daemon &daemon, std::string name,
      std::vector<Request> requests, int connections, bool paced,
      double max_sec)
{
    Phase phase;
    phase.name = std::move(name);
    auto stats_client = serve::ServeClient::connectUnixSocket(daemon.socket);
    phase.before = statsSnapshot(stats_client);
    std::vector<serve::ServeClient> clients;
    for (int c = 0; c < connections; ++c)
        clients.push_back(
            serve::ServeClient::connectUnixSocket(daemon.socket));
    std::atomic<size_t> next{0};
    std::vector<std::string> errors(static_cast<size_t>(connections));
    phase.start = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < connections; ++c) {
        workers.emplace_back([&, c] {
            try {
                serve::ServeClient &client =
                    clients[static_cast<size_t>(c)];
                std::vector<serve::ReadRecord> batch;
                while (true) {
                    const size_t i = next.fetch_add(1);
                    if (i >= requests.size())
                        break;
                    Request &request = requests[i];
                    if (paced) {
                        request.due =
                            phase.start +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    request.dueSec));
                        std::this_thread::sleep_until(request.due);
                    } else if (secondsSince(phase.start) >= max_sec) {
                        break;
                    }
                    const auto begin = run.inputs.records.begin() +
                                       static_cast<ptrdiff_t>(request.first);
                    batch.assign(begin, begin + static_cast<ptrdiff_t>(
                                                    request.count));
                    request.sent = Clock::now();
                    if (!paced)
                        request.due = request.sent;
                    serve::Reply reply = client.mapReads("ref", batch);
                    request.replied = Clock::now();
                    request.ok = reply.ok;
                    request.payload =
                        reply.ok ? std::move(reply.payload) : reply.code;
                    request.connection = c;
                    request.done = true;
                }
            } catch (const std::exception &error) {
                errors[static_cast<size_t>(c)] = error.what();
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    phase.after = statsSnapshot(stats_client);
    for (const auto &error : errors)
        if (!error.empty())
            run.outcome.operation(false, "serve connection: " + error);
    phase.end = phase.start;
    for (auto &request : requests) {
        if (!request.done)
            continue;
        run.outcome.operation(request.ok,
                              phase.name + " MAP reply " +
                                  (request.ok ? "OK" : request.payload));
        phase.end = std::max(phase.end, request.replied);
        phase.requests.push_back(std::move(request));
    }
    return phase;
}

/** Closed-loop requests cycling over the first @p pool reads. */
std::vector<Request>
cyclingRequests(size_t count, size_t per_request, size_t pool)
{
    std::vector<Request> requests(count);
    for (size_t i = 0; i < count; ++i) {
        requests[i].first = (i * per_request) % (pool - per_request + 1);
        requests[i].count = per_request;
    }
    return requests;
}

/** Every reply must equal the offline PAF lines of its reads. */
void
checkReplies(Run &run, const Phase &phase,
             const std::unordered_map<size_t, std::string> &offline)
{
    size_t mismatches = 0;
    for (const auto &request : phase.requests) {
        std::string expected;
        for (size_t r = request.first; r < request.first + request.count;
             ++r) {
            const auto it = offline.find(r);
            if (it != offline.end())
                expected += it->second;
        }
        mismatches += request.ok && request.payload != expected ? 1 : 0;
    }
    run.outcome.check(mismatches == 0,
                      phase.name + ": " + std::to_string(mismatches) +
                          " replies differ from `segram map`");
}

/** Per-layer metrics of the serve layers over one phase. */
void
addServeLayerMetrics(Run &run, const Phase &phase)
{
    const auto delta = [&](const std::string &key) {
        const auto a = phase.before.find(key);
        const auto b = phase.after.find(key);
        return (b == phase.after.end() ? 0.0 : b->second) -
               (a == phase.before.end() ? 0.0 : a->second);
    };
    const auto total_ms = [](const std::map<std::string, double> &stats) {
        const auto mean = stats.find("server.latency_mean_ms");
        const auto count = stats.find("server.map_requests");
        return mean == stats.end() || count == stats.end()
                   ? 0.0
                   : mean->second * count->second;
    };
    const double requests = std::max(1.0, delta("server.map_requests"));
    const double server_mean_ms =
        (total_ms(phase.after) - total_ms(phase.before)) / requests;
    std::vector<double> round_trip_ms;
    for (const auto &request : phase.requests)
        round_trip_ms.push_back(
            secondsBetween(request.sent, request.replied) * 1e3);
    const double stage_sec = delta("tenant.ref.seeding_sec") +
                             delta("tenant.ref.linearize_sec") +
                             delta("tenant.ref.align_sec");
    Outcome &out = run.outcome;
    out.add("serve.server_mean_ms", server_mean_ms, "ms");
    out.add("serve.transport_mean_ms", mean(round_trip_ms) - server_mean_ms,
            "ms");
    out.add("serve.pool_busy_frac",
            stage_sec / (secondsBetween(phase.start, phase.end) * kThreads),
            "fraction");
    out.add("serve.busy_rejects", delta("server.busy_rejects"), "count");
    out.add("client.lag_p99_ms", percentile(phase.lagsMs(), 0.99), "ms");
}

/**
 * Records each request of @p phase as a client-side span (due to
 * reply), and the daemon's STATS counters around the phase.
 */
void
traceRequests(Run &run, const Phase &phase, int parent)
{
    TraceRecorder &trace = *run.trace;
    const auto sample = [&](const std::map<std::string, double> &stats,
                            Clock::time_point when) {
        TraceArgs values;
        for (const char *key :
             {"server.map_requests", "server.busy_rejects",
              "server.latency_mean_ms", "tenant.ref.seeding_sec",
              "tenant.ref.linearize_sec", "tenant.ref.align_sec"}) {
            const auto it = stats.find(key);
            values.emplace_back(key, it == stats.end() ? 0.0 : it->second);
        }
        trace.counter("serve STATS", when, std::move(values));
    };
    sample(phase.before, phase.start);
    for (size_t i = 0; i < phase.requests.size(); ++i) {
        const Request &request = phase.requests[i];
        trace.add("MAP", "serve", request.due, request.replied, parent,
                  static_cast<int64_t>(i), request.connection + 1,
                  {{"reads", static_cast<double>(request.count)},
                   {"lag_ms", secondsBetween(request.due, request.sent) * 1e3},
                   {"round_trip_ms",
                    secondsBetween(request.sent, request.replied) * 1e3}});
    }
    sample(phase.after, phase.end);
}

void
printLatencies(const Phase &phase)
{
    const auto latencies = phase.latenciesMs();
    std::fprintf(stderr,
                 "[bench_e2e]   %-8s %5zu requests, %6zu reads in %.2f s "
                 "(%.0f reads/s): latency p50 %.2f ms, p90 %.2f ms, "
                 "p99 %.2f ms, max %.2f ms; send lag p99 %.2f ms\n",
                 phase.name.c_str(), phase.requests.size(), phase.reads(),
                 secondsBetween(phase.start, phase.end),
                 phase.readsPerSec(), percentile(latencies, 0.5),
                 percentile(latencies, 0.9), percentile(latencies, 0.99),
                 percentile(latencies, 1.0),
                 percentile(phase.lagsMs(), 0.99));
}

// ------------------------------------------------------------- replay

/** The SegramConfig `segram map <pack> <reads> E` runs with. */
core::SegramConfig
cliSegramConfig(const WorkloadSpec &spec)
{
    core::SegramConfig config;
    config.minseed.errorRate = spec.errorRate;
    config.minseed.maxOccurrences = spec.maxOcc;
    config.bitalign.windowEditCap =
        std::max(32, static_cast<int>(config.bitalign.windowLen *
                                      spec.errorRate * 3));
    config.earlyExitFraction = 1.5;
    config.tryReverseComplement = true;
    return config;
}

/** Layer times and counters of one traced replay. */
struct Replay
{
    double wallSec = 0.0;
    double packLoadSec = 0.0;
    double mapperInitSec = 0.0;
    double parseSec = 0.0;
    double mapBatchSec = 0.0;
    double formatSec = 0.0;
    double writeSec = 0.0;
    core::PipelineStats stats;
    std::string paf;
};

/**
 * Replays `segram map`'s loop in-process with the CLI's public calls
 * (PreprocessedReference::load, ShardedBatchMapper, nextBatch,
 * mapBatch, makePafRecord + formatPaf, then the stream write and
 * flush a PafWriter performs), one span per call and one batch id per
 * batch, per-batch PipelineStats deltas attached at the mapBatch
 * boundary.
 */
Replay
replay(Run &run, const std::string &reads, size_t batch_size)
{
    TraceRecorder &trace = *run.trace;
    Replay out;
    const int root = trace.begin("segram map (replay)", "bench");
    int span = trace.begin("PreprocessedReference::load", "io", root);
    const auto reference = core::PreprocessedReference::load(run.pack);
    out.packLoadSec = trace.end(span);
    span = trace.begin("ShardedBatchMapper", "core", root);
    core::ShardedBatchConfig batch_config;
    batch_config.threads = kThreads;
    const core::ShardedBatchMapper mapper(
        reference, cliSegramConfig(run.spec), batch_config);
    std::unordered_map<std::string, uint64_t> target_len;
    for (const auto &chromosome : reference.chromosomes())
        target_len[chromosome.name] = chromosome.graph.totalSeqLen();
    out.mapperInitSec = trace.end(span);

    io::FastxReader reader(reads);
    const std::string paf_path = run.path("replay.paf");
    std::ofstream paf_file(paf_path, std::ios::binary);
    std::vector<io::FastxRecord> batch;
    std::vector<std::string_view> seqs;
    std::string formatted;
    for (int64_t id = 0;; ++id) {
        batch.clear();
        span = trace.begin("FastxReader::nextBatch", "io", root, id);
        const size_t n = reader.nextBatch(batch, batch_size);
        out.parseSec += trace.end(span, {{"reads", static_cast<double>(n)}});
        if (n == 0)
            break;
        seqs.clear();
        for (const auto &record : batch)
            seqs.push_back(record.seq);

        core::PipelineStats delta;
        span = trace.begin("ShardedBatchMapper::mapBatch", "core", root, id);
        const auto results = mapper.mapBatch(
            std::span<const std::string_view>(seqs), &delta);
        const auto &t = delta.timings;
        out.mapBatchSec += trace.end(
            span,
            {{"reads", static_cast<double>(n)},
             {"seeding_sec", t.seedingSec},
             {"linearize_sec", t.linearizeSec},
             {"align_sec", t.alignSec},
             {"regions_aligned", static_cast<double>(delta.regionsAligned)},
             {"reads_mapped", static_cast<double>(delta.readsMapped)},
             {"seeds_fetched",
              static_cast<double>(delta.seeding.seedsFetched)},
             {"batched_windows", static_cast<double>(delta.batchedWindows)},
             {"scalar_windows", static_cast<double>(delta.scalarWindows)}});
        out.stats += delta;
        trace.counter("pipeline", Clock::now(),
                      {{"regions_aligned",
                        static_cast<double>(out.stats.regionsAligned)},
                       {"reads_mapped",
                        static_cast<double>(out.stats.readsMapped)}});

        span = trace.begin("makePafRecord+formatPaf", "io", root, id);
        formatted.clear();
        for (size_t i = 0; i < n; ++i) {
            const auto &result = results[i];
            if (!result.mapped)
                continue;
            io::formatPaf(formatted,
                          io::makePafRecord(
                              batch[i].name, batch[i].seq.size(),
                              result.reverseComplemented ? '-' : '+',
                              result.chromosome,
                              target_len[result.chromosome],
                              result.linearStart, result.cigar));
        }
        out.formatSec += trace.end(span);

        span = trace.begin("PAF write+flush", "io", root, id);
        paf_file.write(formatted.data(),
                       static_cast<std::streamsize>(formatted.size()));
        paf_file.flush();
        out.writeSec += trace.end(
            span, {{"bytes", static_cast<double>(formatted.size())}});
    }
    paf_file.close();
    out.wallSec = trace.end(root);
    run.outcome.check(static_cast<bool>(paf_file), "replay PAF write");
    out.paf = slurp(paf_path);
    return out;
}

/** In-process index build (the work `segram index` does before save). */
double
indexBuildSeconds(Run &run)
{
    const int span = run.trace->begin(
        "PreprocessedReference::buildFromFiles", "index");
    index::IndexConfig config;
    config.bucketBits = 16; // `segram index` default
    const auto reference = core::PreprocessedReference::buildFromFiles(
        run.inputs.fasta, run.inputs.vcf, config);
    return run.trace->end(
        span, {{"chromosomes",
                static_cast<double>(reference.numChromosomes())}});
}

/**
 * Per-layer metrics of the traced passes: each is the median over the
 * passes of the run; counters are identical across passes.
 */
void
addReplayMetrics(Run &run, const std::vector<Replay> &replays,
                 const std::vector<double> &cli_walls, double index_build_s)
{
    const auto med = [&](auto field) {
        std::vector<double> values;
        for (const auto &r : replays)
            values.push_back(field(r));
        return median(values);
    };
    const core::PipelineStats &stats = replays.front().stats;
    const auto &timings = [](const Replay &r) -> const core::StageTimings & {
        return r.stats.timings;
    };
    const auto stage = [&](const Replay &r) {
        return timings(r).seedingSec + timings(r).linearizeSec +
               timings(r).alignSec;
    };
    const double reads = static_cast<double>(stats.readsTotal);
    const double regions =
        std::max<double>(1.0, static_cast<double>(stats.regionsAligned));
    const double windows =
        static_cast<double>(stats.batchedWindows + stats.scalarWindows);
    Outcome &out = run.outcome;
    out.add("io.parse_s", med([](const Replay &r) { return r.parseSec; }),
            "s");
    out.add("io.format_s", med([](const Replay &r) { return r.formatSec; }),
            "s");
    out.add("io.write_s", med([](const Replay &r) { return r.writeSec; }),
            "s");
    out.add("io.pack_load_s",
            med([](const Replay &r) { return r.packLoadSec; }), "s");
    out.add("index.build_s", index_build_s, "s");
    out.add("core.map_batch_s",
            med([](const Replay &r) { return r.mapBatchSec; }), "s");
    out.add("core.pool_busy_frac",
            med([&](const Replay &r) {
                return stage(r) / (r.mapBatchSec * kThreads);
            }),
            "fraction");
    out.add("core.sched_s",
            med([&](const Replay &r) {
                return r.mapBatchSec * kThreads - stage(r);
            }),
            "s");
    out.add("core.serial_frac",
            med([](const Replay &r) {
                return (r.parseSec + r.formatSec + r.writeSec) / r.wallSec;
            }),
            "fraction");
    out.add("core.unaccounted_frac",
            med([](const Replay &r) {
                return (r.wallSec - r.packLoadSec - r.mapperInitSec -
                        r.parseSec - r.mapBatchSec - r.formatSec -
                        r.writeSec) /
                       r.wallSec;
            }),
            "fraction");
    out.add("core.regions_per_read",
            static_cast<double>(stats.regionsAligned) / reads, "count");
    out.add("core.useful_region_frac",
            static_cast<double>(stats.readsMapped) / regions, "fraction");
    out.add("seed.stage_s",
            med([&](const Replay &r) { return timings(r).seedingSec; }), "s");
    out.add("seed.us_per_read",
            med([&](const Replay &r) { return timings(r).seedingSec; }) *
                1e6 / reads,
            "us");
    out.add("seed.seeds_per_read",
            static_cast<double>(stats.seeding.seedsFetched) / reads, "count");
    out.add("seed.minimizers_per_read",
            static_cast<double>(stats.seeding.minimizersComputed) / reads,
            "count");
    out.add("graph.linearize_s",
            med([&](const Replay &r) { return timings(r).linearizeSec; }),
            "s");
    out.add("graph.us_per_region",
            med([&](const Replay &r) { return timings(r).linearizeSec; }) *
                1e6 / regions,
            "us");
    out.add("align.stage_s",
            med([&](const Replay &r) { return timings(r).alignSec; }), "s");
    out.add("align.us_per_region",
            med([&](const Replay &r) { return timings(r).alignSec; }) * 1e6 /
                regions,
            "us");
    out.add("align.windows_per_read", windows / reads, "count");
    out.add("align.lane_occupancy",
            stats.batchLaunches == 0
                ? 0.0
                : static_cast<double>(stats.batchedWindows) /
                      static_cast<double>(stats.batchLaunches),
            "windows");
    out.add("align.scalar_window_frac",
            windows == 0.0 ? 0.0
                           : static_cast<double>(stats.scalarWindows) /
                                 windows,
            "fraction");
    std::vector<double> overhead;
    for (size_t i = 0; i < replays.size(); ++i)
        overhead.push_back(replays[i].wallSec / cli_walls[i] - 1.0);
    out.add("trace.overhead_frac", median(overhead), "fraction");
}

/**
 * Traced passes: the untraced CLI run and its in-process replay,
 * alternated until @p seconds; each replay's PAF must equal the CLI's.
 */
void
tracedPasses(Run &run, const std::string &reads, size_t batch_size,
             double seconds)
{
    const double build_s = indexBuildSeconds(run);
    std::vector<Replay> replays;
    std::vector<double> cli_walls;
    const auto start = Clock::now();
    do {
        const ChildResult cli =
            runCli(run, mapArgs(run, kThreads, reads, batch_size),
                   run.path("cli.paf"), "segram map (traced pass)");
        cli_walls.push_back(cli.wallSec);
        replays.push_back(replay(run, reads, batch_size));
        run.outcome.check(replays.back().paf == slurp(run.path("cli.paf")),
                          "replay PAF differs from `segram map`");
    } while (secondsSince(start) < seconds);
    addReplayMetrics(run, replays, cli_walls, build_s);
}

// ---------------------------------------------------------- workloads

/** Scores @p paf (of the first @p reads) against the truth, gates it
 *  on the workload's floor and fingerprints it; returns the
 *  sensitivity. */
double
checkPaf(Run &run, std::string_view paf, size_t reads)
{
    const double sens = sensitivity(run, paf, reads);
    run.outcome.check(sens >= run.spec.sensitivityFloor,
                      "sensitivity " + formatDouble(sens) + " below floor " +
                          formatDouble(run.spec.sensitivityFloor));
    run.outcome.pafFnv = fnv64(paf);
    return sens;
}

/**
 * Traced map workload: a serve probe (single-read requests over one
 * connection, closed loop) for the serve-layer metrics, then the
 * traced CLI/replay passes.
 */
void
traceMapWorkload(Run &run)
{
    const auto start = Clock::now();
    Daemon daemon = startDaemon(run);
    const Phase probe = drive(
        run, daemon, "probe",
        cyclingRequests(run.spec.probeRequests, 1, run.spec.probeRequests),
        1, false, 1e9);
    stopDaemon(run, daemon);
    printLatencies(probe);
    const int parent = run.trace->add("serve probe", "bench", probe.start,
                                      probe.end, -1, -1, 0);
    traceRequests(run, probe, parent);

    tracedPasses(run, run.inputs.slices.front(), kCliBatch,
                 run.options.seconds - secondsSince(start));
    addServeLayerMetrics(run, probe);
    const std::string paf = slurp(run.path("cli.paf"));
    // `segram serve` has no --max-occ: its replies match `segram map`
    // only where the workload runs uncapped.
    if (run.spec.maxOcc == 0)
        checkReplies(run, probe, pafByRead(paf));
    checkPaf(run, paf, run.spec.sliceReads);
}

void
runMapWorkload(Run &run)
{
    const WorkloadSpec &spec = run.spec;
    const double index_s = medianIndexSeconds(run);
    if (run.trace != nullptr) {
        traceMapWorkload(run);
        return;
    }
    // Rounds cycle through the slices (every slice at least once); a
    // slice's PAF must come out byte-identical every time, and its
    // 1-thread prefix must be the prefix of its 4-thread PAF. Each round
    // also times a one-read query, so its samples span the whole run.
    std::vector<std::string> slice_paf(spec.slices);
    std::vector<double> first;
    std::vector<double> walls4;
    std::vector<double> walls1;
    std::vector<double> rss;
    const auto start = Clock::now();
    for (uint32_t round = 0;
         round < spec.slices || secondsSince(start) < run.options.seconds;
         ++round) {
        const uint32_t slice = round % spec.slices;
        const ChildResult four = runCli(
            run, mapArgs(run, kThreads, run.inputs.slices[slice]),
            run.path("4t.paf"), "segram map --threads 4");
        walls4.push_back(four.wallSec);
        rss.push_back(four.maxRssMib);
        std::string text = slurp(run.path("4t.paf"));
        if (round < spec.slices)
            slice_paf[slice] = std::move(text);
        else
            run.outcome.check(text == slice_paf[slice],
                              "4-thread PAF differs between runs");
        const ChildResult one = runCli(
            run, mapArgs(run, 1, run.inputs.prefixes[slice]),
            run.path("1t.paf"), "segram map --threads 1");
        walls1.push_back(one.wallSec);
        run.outcome.check(
            slurp(run.path("1t.paf")) ==
                pafForReads(slice_paf[slice],
                            size_t{slice} * spec.sliceReads +
                                spec.prefixReads),
            "1-thread PAF is not the 4-thread PAF's prefix");
        first.push_back(runCli(run, mapArgs(run, kThreads, run.inputs.setup),
                               "/dev/null", "segram map (one read)")
                            .wallSec);
    }
    std::string paf;
    for (const auto &text : slice_paf)
        paf += text;
    const double sens = checkPaf(run, paf, spec.totalReads());

    const auto print_walls = [](const char *what,
                                const std::vector<double> &walls) {
        std::fprintf(stderr, "[bench_e2e]   %s walls (s):", what);
        for (const double wall : walls)
            std::fprintf(stderr, " %.3f", wall);
        std::fprintf(stderr, "\n");
    };
    print_walls("--threads 4", walls4);
    print_walls("--threads 1", walls1);
    print_walls("one-read", first);
    Outcome &out = run.outcome;
    out.add("reads_per_s", spec.sliceReads / median(walls4), "reads/s");
    out.add("reads_per_s_1t", spec.prefixReads / median(walls1), "reads/s");
    out.add("sensitivity", sens, "fraction");
    out.add("setup_s", index_s + median(first), "s");
    out.add("peak_rss_mib", median(rss), "MiB");
    out.add("latency_ms", median(first) * 1e3, "ms");
}

void
runServeWorkload(Run &run)
{
    const WorkloadSpec &spec = run.spec;
    const bool traced = run.trace != nullptr;
    const size_t per_request = spec.readsPerRequest;
    const double index_s = medianIndexSeconds(run);
    std::vector<double> ready;
    Daemon daemon;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (daemon.child != nullptr)
            stopDaemon(run, daemon);
        daemon = startDaemon(run);
        ready.push_back(daemon.readySec);
    }

    // Poisson arrivals at fixed absolute rates, reads in file order.
    Rng rng(run.options.seed ^ fnv64("arrivals"));
    const auto open_loop = [&](size_t first_request, size_t count,
                               double rate) {
        std::vector<Request> requests(count);
        double t = 0.0;
        for (size_t i = 0; i < count; ++i) {
            t += -std::log(1.0 - rng.nextDouble()) / rate;
            requests[i].first = (first_request + i) * per_request;
            requests[i].count = per_request;
            requests[i].dueSec = t;
        }
        return requests;
    };
    const size_t pool = run.inputs.records.size();
    // Closed loops stop on time; the request lists only bound them.
    const size_t closed_cap = 100'000;
    // Duration of the closed loops: what --seconds leaves after the
    // fixed open-loop phases.
    const double open_sec = spec.lowRequests / spec.lowRate +
                            spec.highRequests / spec.highRate;
    const double closed_sec =
        std::max(0.2, run.options.seconds - open_sec);
    std::vector<Phase> phases;
    phases.push_back(drive(run, daemon, "warmup",
                           cyclingRequests(16, per_request, pool), 1, false,
                           1e9));
    phases.push_back(drive(run, daemon, "closed1",
                           cyclingRequests(closed_cap, per_request, pool), 1,
                           false, closed_sec * spec.closedOneShare));
    phases.push_back(drive(run, daemon, "closed4",
                           cyclingRequests(closed_cap, per_request, pool),
                           kThreads, false,
                           closed_sec * (1.0 - spec.closedOneShare)));
    phases.push_back(drive(run, daemon, "low",
                           open_loop(0, spec.lowRequests, spec.lowRate),
                           kThreads, true, 0.0));
    phases.push_back(drive(run, daemon, "high",
                           open_loop(spec.lowRequests, spec.highRequests,
                                     spec.highRate),
                           kThreads, true, 0.0));
    const ChildResult daemon_exit = stopDaemon(run, daemon);
    for (const auto &phase : phases)
        printLatencies(phase);
    const Phase &closed1 = phases[1];
    const Phase &closed4 = phases[2];
    const Phase &low = phases[3];

    // The open-loop phases sent every read once, in file order.
    std::string served;
    for (size_t p = 3; p < 5; ++p)
        for (const auto &request : phases[p].requests)
            served += request.payload;
    const double sens = checkPaf(run, served, spec.totalReads());

    // The offline reference: `segram map` on the same reads (traced
    // runs take it from the replay pass, in the daemon's batch shape).
    if (traced) {
        for (const auto &phase : phases) {
            const int parent = run.trace->add("phase " + phase.name,
                                              "bench", phase.start,
                                              phase.end, -1, -1, 0);
            traceRequests(run, phase, parent);
        }
        tracedPasses(run, run.inputs.reads, per_request, 0.0);
    } else {
        runCli(run, mapArgs(run, kThreads, run.inputs.reads),
               run.path("cli.paf"), "segram map (offline reference)");
    }
    const std::string offline_paf = slurp(run.path("cli.paf"));
    run.outcome.check(served == offline_paf,
                      "open-loop replies in request order differ from "
                      "`segram map` on the same reads");
    const auto by_read = pafByRead(offline_paf);
    for (const auto &phase : phases)
        checkReplies(run, phase, by_read);
    if (traced) {
        addServeLayerMetrics(run, low);
        return;
    }

    Outcome &out = run.outcome;
    out.add("reads_per_s", closed4.windowedReadsPerSec(kWindowSec),
            "reads/s");
    out.add("reads_per_s_1t", closed1.windowedReadsPerSec(kWindowSec),
            "reads/s");
    out.add("sensitivity", sens, "fraction");
    out.add("setup_s", index_s + median(ready), "s");
    out.add("peak_rss_mib", daemon_exit.maxRssMib, "MiB");
    out.add("latency_ms", percentile(low.latenciesMs(), 0.5), "ms");
}

// -------------------------------------------------------------- report

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** The checkout's commit; "unknown" outside a git work tree (git is
 *  not asked to search the directories above). */
std::string
gitSha()
{
    if (!std::filesystem::exists(".git"))
        return "unknown";
    FILE *pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (pipe == nullptr)
        return "unknown";
    char buffer[64] = {};
    const bool got = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
    ::pclose(pipe);
    std::string sha = got ? buffer : "";
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

std::string
hex64(uint64_t value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

/** The result object of the last stdout line (exactly these keys). */
std::string
resultJson(const Outcome &outcome)
{
    std::string json = std::string("{\"correct\": ") +
                       (outcome.correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &metric = outcome.metrics[i];
        json += (i == 0 ? "\"" : ", \"") + metric.name +
                "\": {\"value\": " + formatDouble(metric.value) +
                ", \"unit\": \"" + metric.unit + "\"}";
    }
    return json + "}}";
}

Outcome
runWorkload(const Options &options, Spawner &spawner,
            const WorkloadSpec &spec, const std::string &host)
{
    WorkDir work(".bench_build/work-" + std::to_string(::getpid()) + "-" +
                 spec.name);
    TraceRecorder recorder;
    Run run{options, spawner, spec, work.path, {},
            work.path + "/ref.segram", {},
            options.trace ? &recorder : nullptr};
    std::fprintf(stderr, "[bench_e2e] %s seed %llu (%s)\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.trace ? "traced" : "untraced");
    run.inputs = generate(spec, options.seed, work.path);
    if (spec.serve)
        runServeWorkload(run);
    else
        runMapWorkload(run);

    std::fprintf(stderr, "[bench_e2e]   inputs_fnv64 %s paf_fnv64 %s\n",
                 hex64(run.inputs.fnv).c_str(),
                 hex64(run.outcome.pafFnv).c_str());
    for (const Metric &metric : run.outcome.metrics)
        std::fprintf(stderr, "[bench_e2e]   %-26s %14.6g %s\n",
                     metric.name.c_str(), metric.value, metric.unit.c_str());
    if (options.trace) {
        std::filesystem::create_directories(options.traceDir);
        const std::string path =
            options.traceDir + "/" + spec.name + ".trace.json";
        run.outcome.check(recorder.write(path, "bench_e2e " + spec.name),
                          "cannot write " + path);
        std::fprintf(stderr, "[bench_e2e]   trace: %s (%zu spans)\n",
                     path.c_str(), recorder.numSpans());
    }
    if (!options.jsonPath.empty()) {
        std::ofstream json(options.jsonPath, std::ios::app);
        json << "{\"workload\": \"" << spec.name
             << "\", \"seed\": " << options.seed
             << ", \"trace\": " << (options.trace ? 1 : 0)
             << ", \"host\": " << host << ", \"inputs_fnv64\": \""
             << hex64(run.inputs.fnv) << "\", \"paf_fnv64\": \""
             << hex64(run.outcome.pafFnv)
             << "\", \"result\": " << resultJson(run.outcome) << "}\n";
        run.outcome.check(static_cast<bool>(json),
                          "cannot append to " + options.jsonPath);
    }
    return std::move(run.outcome);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e [--workload NAME|all] [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                 [--trace-dir DIR] [--json OUT] "
                 "[--smoke]\n"
                 "workloads: short_reads long_reads repeat_chroms "
                 "serve_stream\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::stoull(value());
        else if (arg == "--seconds") {
            options.seconds = std::stod(value());
            seconds_given = true;
        } else if (arg == "--trace")
            options.trace = value() != "0";
        else if (arg == "--trace-dir")
            options.traceDir = value();
        else if (arg == "--json")
            options.jsonPath = value();
        else if (arg == "--smoke")
            options.smoke = true;
        else
            usage();
    }
    if (options.smoke && !seconds_given)
        options.seconds = 0.5;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    const Options options = parseOptions(argc, argv);
    std::vector<WorkloadSpec> selected;
    for (const auto &spec : workloadSpecs(options.smoke))
        if (options.workload == "all" || options.workload == spec.name)
            selected.push_back(spec);
    if (selected.empty())
        usage();

    const std::string host =
        "{\"cpu\": \"" + cpuModel() + "\", \"nproc\": " +
        std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
        ", \"kernel_backend\": \"" + bitops::activeBackendName() +
        "\", \"git_sha\": \"" + gitSha() + "\"}";
    std::fprintf(stderr, "[bench_e2e] host %s\n", host.c_str());

    bool all_correct = true;
    try {
        Spawner spawner; // before any input is generated: see process.h
        for (const auto &spec : selected) {
            // A hung child or daemon must not hang the run: SIGALRM ends
            // the bench, and the spawn server then kills its children.
            ::alarm(static_cast<unsigned>(options.seconds) + kSlackSec);
            const Outcome outcome =
                runWorkload(options, spawner, spec, host);
            all_correct = all_correct && outcome.correct;
            std::printf("%s\n", resultJson(outcome).c_str());
            std::fflush(stdout);
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "[bench_e2e] error: %s\n", error.what());
        return 1;
    }
    return all_correct ? 0 : 1;
}
