/**
 * @file
 * Concurrency stress test for the serving stack, built to run under
 * ThreadSanitizer (ctest label `tsan`; the TSan CI leg includes it
 * via -L serve). Three thread populations hit one in-process daemon
 * simultaneously:
 *
 *   - MAP clients hammering the mapping path with small odd-sized
 *     requests, so the dispatcher coalesces them into shared batches
 *     (every OK payload must be byte-identical to the offline library
 *     driver's output for exactly that request's reads),
 *   - STATS readers polling the metrics surface (exercises the
 *     lock-free LatencyHistogram reads and the residency gauges
 *     racing against writers),
 *   - an admin connection reloading the tenant's pack in a loop
 *     (exercises the registry swap and the drain of the old service
 *     while its last requests are still in flight).
 *
 * The point is the *interleaving*, not the assertions: under TSan a
 * missing acquire/release edge anywhere on these paths is a test
 * failure even when every byte still comes out right.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "tests/serve_test_util.h"

namespace
{

using namespace segram;
using namespace segram::serve;

class ServeStressTest : public ServeFixture
{
  protected:
    void
    SetUp() override
    {
        makePack("segram_serve_stress_", 11, 42, 16);
    }
};

TEST_F(ServeStressTest, ReloadStatsAndTrafficInterleaveCleanly)
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

    // Odd-sized slices of the 16 reads (1 + 3 + 5 + 7), each with the
    // offline answer for exactly its own reads.
    struct Slice
    {
        std::vector<ReadRecord> reads;
        std::string paf;
    };
    std::vector<Slice> slices;
    size_t next = 0;
    for (const size_t size : {1, 3, 5, 7}) {
        Slice slice;
        slice.reads.assign(
            reads_.begin() + static_cast<ptrdiff_t>(next),
            reads_.begin() + static_cast<ptrdiff_t>(next + size));
        slice.paf = offlinePaf(config, slice.reads);
        slices.push_back(std::move(slice));
        next += size;
    }
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> map_errors{0};
    std::atomic<uint64_t> maps_completed{0};
    std::atomic<uint64_t> stats_errors{0};
    std::atomic<uint64_t> stats_completed{0};

    // Population 1: mapping traffic from more connections than the
    // pool has threads, so coalesced runs interleave with the reload
    // swaps. BUSY is legal under load; any other failure, or a payload
    // that is not byte-identical to the offline driver, is an error.
    std::vector<std::thread> workers;
    for (int c = 0; c < 4; ++c) {
        workers.emplace_back([&, c] {
            auto client =
                ServeClient::connectUnixSocket(socketPath());
            for (size_t k = static_cast<size_t>(c); !stop.load(); ++k) {
                const Slice &slice = slices[k % slices.size()];
                const Reply reply = client.mapReads("ref", slice.reads);
                if (!reply.ok) {
                    if (reply.code != kErrBusy)
                        map_errors.fetch_add(1);
                    continue;
                }
                if (reply.payload != slice.paf)
                    map_errors.fetch_add(1);
                maps_completed.fetch_add(1);
            }
        });
    }

    // Population 2: metrics readers. Every STATS must parse and carry
    // the documented keys — racing the histogram/gauge writers is the
    // whole point.
    for (int s = 0; s < 2; ++s) {
        workers.emplace_back([&] {
            auto client =
                ServeClient::connectUnixSocket(socketPath());
            while (!stop.load()) {
                const Reply reply = client.stats();
                if (!reply.ok ||
                    reply.payload.find("server.requests") ==
                        std::string::npos ||
                    reply.payload.find("server.latency_p99_ms") ==
                        std::string::npos) {
                    stats_errors.fetch_add(1);
                }
                stats_completed.fetch_add(1);
                std::this_thread::yield();
            }
        });
    }

    // Population 3 (this thread): reload the tenant while both other
    // populations run. Each reload builds a fresh service and lets
    // the old one drain under its in-flight MAPs.
    auto admin = ServeClient::connectUnixSocket(socketPath());
    for (int r = 0; r < 4; ++r) {
        const Reply reply = admin.reload("ref", packPath());
        EXPECT_TRUE(reply.ok) << reply.code << " " << reply.message;
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }

    // Let the traffic demonstrably overlap the post-reload world.
    while (maps_completed.load() < 6 || stats_completed.load() < 20)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(map_errors.load(), 0u);
    EXPECT_EQ(stats_errors.load(), 0u);
    EXPECT_GE(maps_completed.load(), 6u);
    server.stop();
}

} // namespace
