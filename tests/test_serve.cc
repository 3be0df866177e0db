/**
 * @file
 * Tests of the serving stack, bottom-up: the wire protocol codec, the
 * bounded admission queue, the latency histogram, the MappingService
 * (daemon output must equal the library driver's, record for record),
 * and the full daemon over a real Unix socket — byte-identity with
 * the offline formatting path, backpressure, multi-tenant routing,
 * reload-under-traffic and graceful shutdown, all in-process so the
 * scheduler can interleave threads freely under the sanitizers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/client.h"
#include "src/serve/metrics.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/util/check.h"
#include "tests/serve_test_util.h"

namespace
{

using namespace segram;
using namespace segram::serve;

// ---------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesEveryVerb)
{
    EXPECT_EQ(parseRequestLine("PING", 10).kind, RequestKind::Ping);
    EXPECT_EQ(parseRequestLine("STATS", 10).kind, RequestKind::Stats);
    EXPECT_EQ(parseRequestLine("QUIT", 10).kind, RequestKind::Quit);

    const Request map = parseRequestLine("MAP chr1 7", 10);
    EXPECT_EQ(map.kind, RequestKind::Map);
    EXPECT_EQ(map.reference, "chr1");
    EXPECT_EQ(map.readCount, 7u);

    const Request reload =
        parseRequestLine("RELOAD hg38 /data/my packs/v2.segram", 10);
    EXPECT_EQ(reload.kind, RequestKind::Reload);
    EXPECT_EQ(reload.reference, "hg38");
    // Everything after the reference is the path — spaces included.
    EXPECT_EQ(reload.packPath, "/data/my packs/v2.segram");
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    EXPECT_THROW(parseRequestLine("", 10), InputError);
    EXPECT_THROW(parseRequestLine("NOPE", 10), InputError);
    EXPECT_THROW(parseRequestLine("PING extra", 10), InputError);
    EXPECT_THROW(parseRequestLine("MAP chr1", 10), InputError);
    EXPECT_THROW(parseRequestLine("MAP chr1 0", 10), InputError);
    EXPECT_THROW(parseRequestLine("MAP chr1 11", 10), InputError);
    EXPECT_THROW(parseRequestLine("MAP chr1 seven", 10), InputError);
    EXPECT_THROW(parseRequestLine("RELOAD chr1", 10), InputError);
}

TEST(ServeProtocol, ReadLinesNormalizeLikeFileIngestion)
{
    const ReadRecord read = parseReadLine("r1\tacgtACGT");
    EXPECT_EQ(read.name, "r1");
    EXPECT_EQ(read.seq, "ACGTACGT"); // lower case normalized up

    EXPECT_THROW(parseReadLine("noseparator"), InputError);
    EXPECT_THROW(parseReadLine("\tACGT"), InputError);
    EXPECT_THROW(parseReadLine("r1\t"), InputError);
    EXPECT_THROW(parseReadLine("r 1\tACGT"), InputError);
}

TEST(ServeProtocol, ResponseHeadRoundTrips)
{
    const ResponseHead ok = parseResponseHead("OK 42");
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.count, 42u);

    // Zero payload lines is legal in responses (PING, RELOAD) even
    // though a zero-read MAP request is not.
    const ResponseHead empty = parseResponseHead("OK 0");
    EXPECT_TRUE(empty.ok);
    EXPECT_EQ(empty.count, 0u);

    const ResponseHead err =
        parseResponseHead("ERR BUSY queue full, retry");
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.code, "BUSY");
    EXPECT_EQ(err.message, "queue full, retry");

    EXPECT_THROW(parseResponseHead("WHAT 3"), InputError);
    EXPECT_THROW(parseResponseHead("OK x"), InputError);
}

TEST(ServeProtocol, FormatErrorFlattensNewlines)
{
    // The framing is line-oriented: a newline smuggled into an error
    // message would desynchronize every later response.
    EXPECT_EQ(formatError(kErrInternal, "line1\nline2"),
              "ERR INTERNAL line1 line2\n");
}

// --------------------------------------------------------- admission

// A run cap of one read keeps every run to its head job, so the
// queue-order tests below see one job per popRun.
constexpr uint64_t kOneJobPerRun = 1;

TEST(AdmissionQueue, RejectsWhenFullAndPreservesOrder)
{
    AdmissionQueue queue(2);
    MapJob first;
    first.reads.push_back({"a", "ACGT"});
    MapJob second;
    second.reads.push_back({"b", "ACGT"});
    EXPECT_TRUE(queue.tryPush(std::move(first)));
    EXPECT_TRUE(queue.tryPush(std::move(second)));
    EXPECT_EQ(queue.depth(), 2u);

    MapJob overflow;
    EXPECT_FALSE(queue.tryPush(std::move(overflow))); // ERR BUSY path

    auto a = queue.popRun(kOneJobPerRun);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].reads[0].name, "a"); // FIFO
    auto b = queue.popRun(kOneJobPerRun);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].reads[0].name, "b");
}

TEST(AdmissionQueue, StopDrainsAdmittedJobsThenSignalsEnd)
{
    AdmissionQueue queue(4);
    MapJob job;
    job.reads.push_back({"a", "ACGT"});
    EXPECT_TRUE(queue.tryPush(std::move(job)));
    queue.stop();

    MapJob late;
    EXPECT_FALSE(queue.tryPush(std::move(late))); // no new admissions

    // Admitted work drains, then the end signal.
    EXPECT_FALSE(queue.popRun(kOneJobPerRun).empty());
    EXPECT_TRUE(queue.popRun(kOneJobPerRun).empty());
}

TEST(AdmissionQueue, PopBlocksUntilPushFromAnotherThread)
{
    AdmissionQueue queue(1);
    std::thread producer([&queue] {
        MapJob job;
        job.reads.push_back({"x", "ACGT"});
        while (!queue.tryPush(std::move(job)))
            std::this_thread::yield();
    });
    // Blocks until the producer lands.
    const auto run = queue.popRun(kOneJobPerRun);
    producer.join();
    ASSERT_EQ(run.size(), 1u);
    EXPECT_EQ(run[0].reads[0].name, "x");
}

// ----------------------------------------------------------- metrics

TEST(LatencyHistogram, PercentilesBracketRecordedValues)
{
    LatencyHistogram histogram;
    for (int i = 0; i < 95; ++i)
        histogram.record(1000); // ~1 ms
    for (int i = 0; i < 5; ++i)
        histogram.record(1'000'000); // 5% ~1 s outliers

    EXPECT_EQ(histogram.count(), 100u);
    // Log2 buckets overestimate by at most 2x: the p50 must sit near
    // 1 ms (not the outlier), the p99 must see the outlier.
    EXPECT_LE(histogram.percentileMs(0.5), 3.0);
    EXPECT_GE(histogram.percentileMs(0.99), 500.0);
    EXPECT_GT(histogram.meanMs(), 0.0);
}

// ----------------------------------------------- service + end to end

/** A job for @p service carrying @p count reads named @p name. */
MapJob
makeJob(std::shared_ptr<MappingService> service, const std::string &name,
        size_t count = 1)
{
    MapJob job;
    job.service = std::move(service);
    job.reads.assign(count, ReadRecord{name, "ACGT"});
    return job;
}

/** The first read name of each job in @p run, in run order. */
std::vector<std::string>
runNames(const std::vector<MapJob> &run)
{
    std::vector<std::string> names;
    for (const auto &job : run)
        names.push_back(job.reads.at(0).name);
    return names;
}

/** The integer value of @p key in a STATS payload. */
uint64_t
statValue(const std::string &stats, const std::string &key)
{
    std::istringstream lines(stats);
    std::string line;
    while (std::getline(lines, line))
        if (line.compare(0, key.size() + 1, key + " ") == 0)
            return std::stoull(line.substr(key.size() + 1));
    ADD_FAILURE() << "missing STATS key " << key;
    return 0;
}

class ServeTest : public ServeFixture
{
  protected:
    void SetUp() override { makePack("segram_serve_test_", 7, 99, 24); }
};

TEST_F(ServeTest, ServiceMatchesLibraryDriverExactly)
{
    ServiceConfig config;
    // A default tenant runs what `segram serve` runs: the product
    // pipeline, reverse-complement retry and early exit included.
    const core::SegramConfig product = core::SegramConfig::product();
    EXPECT_TRUE(config.segram.tryReverseComplement);
    EXPECT_EQ(config.segram.earlyExitFraction, product.earlyExitFraction);
    EXPECT_EQ(config.segram.bitalign.windowEditCap,
              product.bitalign.windowEditCap);
    config.batch.threads = 2;
    MappingService service("chr", packPath(), config);
    const std::vector<std::vector<ReadRecord>> run{reads_};
    const Reply reply = service.map(run).at(0);
    EXPECT_TRUE(reply.ok);
    EXPECT_GT(reply.lines, 0u);
    EXPECT_EQ(reply.payload, offlinePaf(config, reads_));

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.requests, 1u);
    EXPECT_EQ(snap.reads, reads_.size());
}

TEST_F(ServeTest, PopRunCoalescesOnlyConsecutiveJobsOfOneService)
{
    ServiceConfig config;
    const auto s1 =
        std::make_shared<MappingService>("one", packPath(), config);
    const auto s2 =
        std::make_shared<MappingService>("two", packPath(), config);
    AdmissionQueue queue(8);
    ASSERT_TRUE(queue.tryPush(makeJob(s1, "A")));
    ASSERT_TRUE(queue.tryPush(makeJob(s1, "B")));
    ASSERT_TRUE(queue.tryPush(makeJob(s2, "C")));
    ASSERT_TRUE(queue.tryPush(makeJob(s1, "D")));

    // A run never reaches past another tenant's job: D waits for C.
    using Names = std::vector<std::string>;
    EXPECT_EQ(runNames(queue.popRun(100)), (Names{"A", "B"}));
    EXPECT_EQ(runNames(queue.popRun(100)), (Names{"C"}));
    EXPECT_EQ(runNames(queue.popRun(100)), (Names{"D"}));
    EXPECT_EQ(queue.depth(), 0u);
}

TEST_F(ServeTest, PopRunSplitsAtTheReadCapAndAlwaysTakesTheHead)
{
    ServiceConfig config;
    const auto service =
        std::make_shared<MappingService>("ref", packPath(), config);
    AdmissionQueue queue(8);
    ASSERT_TRUE(queue.tryPush(makeJob(service, "A", 3)));
    ASSERT_TRUE(queue.tryPush(makeJob(service, "B", 3)));
    ASSERT_TRUE(queue.tryPush(makeJob(service, "C", 3)));
    ASSERT_TRUE(queue.tryPush(makeJob(service, "D", 6)));
    ASSERT_TRUE(queue.tryPush(makeJob(service, "E", 1)));
    ASSERT_TRUE(queue.tryPush(makeJob(service, "F", 9)));

    using Names = std::vector<std::string>;
    // 3 + 3 fills the cap of 6; C would make 9.
    EXPECT_EQ(runNames(queue.popRun(6)), (Names{"A", "B"}));
    // C + D would make 9, so C runs alone.
    EXPECT_EQ(runNames(queue.popRun(6)), (Names{"C"}));
    // D alone is at the cap; E does not fit behind it.
    EXPECT_EQ(runNames(queue.popRun(6)), (Names{"D"}));
    EXPECT_EQ(runNames(queue.popRun(6)), (Names{"E"}));
    // F alone exceeds the cap, yet the head job is always taken.
    EXPECT_EQ(runNames(queue.popRun(6)), (Names{"F"}));
    EXPECT_EQ(queue.depth(), 0u);
}

TEST_F(ServeTest, PopRunNeverMixesJobsAcrossAReload)
{
    ServiceConfig config;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    AdmissionQueue queue(8);
    ASSERT_TRUE(queue.tryPush(makeJob(registry.find("ref"), "old")));
    registry.reload("ref", packPath());
    ASSERT_TRUE(queue.tryPush(makeJob(registry.find("ref"), "new1")));
    ASSERT_TRUE(queue.tryPush(makeJob(registry.find("ref"), "new2")));

    // Same tenant name, distinct service objects: the pre-reload job
    // drains on the old pack, alone.
    const auto old_run = queue.popRun(100);
    const auto new_run = queue.popRun(100);
    using Names = std::vector<std::string>;
    EXPECT_EQ(runNames(old_run), (Names{"old"}));
    EXPECT_EQ(runNames(new_run), (Names{"new1", "new2"}));
    EXPECT_EQ(old_run[0].service->name(), new_run[0].service->name());
    EXPECT_NE(old_run[0].service, new_run[0].service);
}

TEST_F(ServeTest, CoalescedRunRepliesMatchEachRequestMappedAlone)
{
    ServiceConfig config;
    config.batch.threads = 4;
    MappingService service("chr", packPath(), config);

    // Requests of 1, 3, 8 and 13 reads (25 in all: the fixture's 24
    // plus a renamed copy of the first), so the mapper's 8-read
    // chunks straddle request boundaries.
    std::vector<ReadRecord> pool = reads_;
    pool.push_back({"r0_again", reads_[0].seq});
    std::vector<std::vector<ReadRecord>> run;
    size_t next = 0;
    for (const size_t size : {1, 3, 8, 13}) {
        run.emplace_back(pool.begin() + static_cast<ptrdiff_t>(next),
                         pool.begin() +
                             static_cast<ptrdiff_t>(next + size));
        next += size;
    }
    ASSERT_EQ(next, pool.size());

    const std::vector<Reply> replies = service.map(run);
    ASSERT_EQ(replies.size(), run.size());
    for (size_t i = 0; i < run.size(); ++i) {
        EXPECT_TRUE(replies[i].ok);
        EXPECT_EQ(replies[i].payload, offlinePaf(config, run[i]))
            << "request " << i;
        EXPECT_EQ(replies[i].lines,
                  static_cast<uint64_t>(std::count(
                      replies[i].payload.begin(),
                      replies[i].payload.end(), '\n')));
    }

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.requests, 4u);
    EXPECT_EQ(snap.reads, 25u);
}

TEST_F(ServeTest, RegistryReloadSwapsAtomicallyAndRejectsUnknown)
{
    ServiceConfig config;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    const auto before = registry.find("ref");
    ASSERT_NE(before, nullptr);

    // A reload of a broken pack must leave the old tenant serving.
    EXPECT_THROW(registry.reload("ref", (dir_ / "nope.segram")
                                            .string()),
                 InputError);
    EXPECT_EQ(registry.find("ref"), before);

    registry.reload("ref", packPath());
    const auto after = registry.find("ref");
    ASSERT_NE(after, nullptr);
    EXPECT_NE(after, before); // fresh service, old one drains

    EXPECT_THROW(registry.reload("ghost", packPath()), InputError);
    EXPECT_EQ(registry.find("ghost"), nullptr);
}

TEST_F(ServeTest, EndToEndMapIsByteIdenticalToOffline)
{
    ServiceConfig config;
    config.batch.threads = 2;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    auto client = ServeClient::connectUnixSocket(socketPath());
    EXPECT_TRUE(client.ping().ok);

    const Reply reply = client.mapReads("ref", reads_);
    ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
    EXPECT_EQ(reply.payload, offlinePaf(config, reads_));

    // STATS carries the operational surface the README documents.
    const Reply stats = client.stats();
    ASSERT_TRUE(stats.ok);
    for (const char *key :
         {"server.requests", "server.map_requests", "server.reads",
          "server.map_batches", "server.queue_depth",
          "server.queue_wait_p50_ms", "server.queue_wait_p99_ms",
          "server.latency_p50_ms", "server.latency_p99_ms",
          "server.kernel_backend",
          "tenant.ref.requests", "tenant.ref.reads_mapped"}) {
        EXPECT_NE(stats.payload.find(key), std::string::npos)
            << "missing STATS key " << key;
    }
    server.stop();
}

TEST_F(ServeTest, ConcurrentSmallRequestsStayByteIdenticalToOffline)
{
    ServiceConfig config;
    config.batch.threads = 4;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    // Odd-sized slices of the fixture reads, each with the offline
    // answer for exactly its own reads.
    struct Slice
    {
        std::vector<ReadRecord> reads;
        std::string paf;
    };
    std::vector<Slice> slices;
    size_t next = 0;
    for (const size_t size : {1, 3, 5, 7, 5, 3}) {
        Slice slice;
        slice.reads.assign(
            reads_.begin() + static_cast<ptrdiff_t>(next),
            reads_.begin() + static_cast<ptrdiff_t>(next + size));
        slice.paf = offlinePaf(config, slice.reads);
        slices.push_back(std::move(slice));
        next += size;
    }

    constexpr int kClients = 6;
    constexpr int kRounds = 3;
    std::atomic<uint64_t> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            auto client =
                ServeClient::connectUnixSocket(socketPath());
            for (size_t k = 0; k < kRounds * slices.size(); ++k) {
                const Slice &slice =
                    slices[(k + static_cast<size_t>(c)) % slices.size()];
                const Reply reply = client.mapReads("ref", slice.reads);
                if (!reply.ok || reply.payload != slice.paf)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &thread : clients)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0u);

    auto client = ServeClient::connectUnixSocket(socketPath());
    const Reply stats = client.stats();
    ASSERT_TRUE(stats.ok);
    const uint64_t requests =
        statValue(stats.payload, "server.map_requests");
    const uint64_t batches =
        statValue(stats.payload, "server.map_batches");
    EXPECT_EQ(requests, uint64_t{kClients} * kRounds * slices.size());
    EXPECT_GE(batches, 1u);
    EXPECT_LE(batches, requests);
    server.stop();
}

TEST_F(ServeTest, RoutesPerReferenceAndRejectsUnknown)
{
    ServiceConfig config;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("a", packPath(),
                                                  config));
    registry.add(std::make_shared<MappingService>("b", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    auto client = ServeClient::connectUnixSocket(socketPath());
    EXPECT_TRUE(client.mapReads("a", reads_).ok);
    EXPECT_TRUE(client.mapReads("b", reads_).ok);

    const Reply missing = client.mapReads("c", reads_);
    EXPECT_FALSE(missing.ok);
    EXPECT_EQ(missing.code, kErrNoRef);
    // The session survives an unknown reference.
    EXPECT_TRUE(client.ping().ok);
    server.stop();
}

TEST_F(ServeTest, MalformedPayloadGetsBadReqAndKeepsFraming)
{
    ServiceConfig config;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    // Raw wire access: one well-framed MAP whose payload line is
    // garbage. The server must consume the whole payload (no
    // desynchronization) and answer ERR BADREQ.
    UniqueFd fd = connectUnix(socketPath());
    ASSERT_TRUE(sendAll(fd.get(), "MAP ref 1\nmissing-tab-line\n"));
    LineReader reader(fd.get());
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(parseResponseHead(line).code, kErrBadReq);

    // Same connection, next request parses cleanly: framing survived.
    ASSERT_TRUE(sendAll(fd.get(), "PING\n"));
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_TRUE(parseResponseHead(line).ok);
    server.stop();
}

TEST_F(ServeTest, ClientVanishingMidRequestLeavesDaemonServing)
{
    ServiceConfig config;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    {
        // Announce a 5-read payload, send half a read, hang up.
        UniqueFd dying = connectUnix(socketPath());
        ASSERT_TRUE(sendAll(dying.get(), "MAP ref 5\nr0\tACG"));
    } // fd closes here — mid-payload

    // A fresh client still gets full service.
    auto client = ServeClient::connectUnixSocket(socketPath());
    EXPECT_TRUE(client.ping().ok);
    const Reply reply = client.mapReads("ref", reads_);
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.payload, offlinePaf(config, reads_));
    server.stop();
}

TEST_F(ServeTest, ReloadUnderTrafficDropsAndDuplicatesNothing)
{
    ServiceConfig config;
    config.batch.threads = 2;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    const std::string expected = offlinePaf(config, reads_);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> completed{0};

    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            auto client =
                ServeClient::connectUnixSocket(socketPath());
            while (!stop.load()) {
                const Reply reply = client.mapReads("ref", reads_);
                // BUSY is a legal answer under load; anything else
                // must be the exact offline payload.
                if (!reply.ok) {
                    if (reply.code != kErrBusy)
                        mismatches.fetch_add(1);
                    continue;
                }
                if (reply.payload != expected)
                    mismatches.fetch_add(1);
                completed.fetch_add(1);
            }
            (void)c;
        });
    }

    // Reload the same pack repeatedly while the clients hammer MAP:
    // every response must come back complete and identical — the
    // drain-on-old/swap-to-new contract.
    auto admin = ServeClient::connectUnixSocket(socketPath());
    for (int r = 0; r < 3; ++r) {
        const Reply reply = admin.reload("ref", packPath());
        EXPECT_TRUE(reply.ok) << reply.code << " " << reply.message;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    while (completed.load() < 6) // make sure mapping really happened
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    for (auto &thread : clients)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0u);
    server.stop();
}

TEST_F(ServeTest, GracefulStopAnswersEveryAdmittedRequest)
{
    ServiceConfig config;
    ServiceRegistry registry;
    registry.add(std::make_shared<MappingService>("ref", packPath(),
                                                  config));
    ServerConfig server_config;
    server_config.unixPath = socketPath();
    Server server(registry, server_config);
    server.start();

    // Launch a request, then stop the server while it may still be
    // in flight: the admitted MAP must be answered, completely.
    std::promise<Reply> done;
    std::thread in_flight([&] {
        auto client = ServeClient::connectUnixSocket(socketPath());
        done.set_value(client.mapReads("ref", reads_));
    });
    // Stop once the server has admitted the request, while it may still
    // be mapping. A fixed sleep here raced on a loaded host: stop()
    // could run before the client even connected, unlinking the socket
    // under it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (statValue(server.statsText(), "server.map_requests") == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(statValue(server.statsText(), "server.map_requests"), 1u);
    server.stop();
    in_flight.join();
    const Reply reply = done.get_future().get();
    EXPECT_TRUE(reply.ok) << reply.code << " " << reply.message;
    EXPECT_EQ(reply.payload, offlinePaf(config, reads_));
}

} // namespace
