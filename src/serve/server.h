/**
 * @file
 * The `segram serve` daemon core: listeners, per-connection sessions,
 * the dispatcher, and the STATS surface — everything except signal
 * handling and flag parsing, which stay in the CLI so the server is
 * fully drivable from a unit test.
 *
 * Thread architecture:
 *
 *   accept thread   polls the listeners (TCP and/or Unix) plus a
 *                   self-pipe, spawns one session thread per
 *                   connection, reaps finished sessions.
 *   session threads parse requests; PING/STATS/RELOAD/QUIT execute
 *                   inline (cheap or registry-level), MAP goes through
 *                   the bounded AdmissionQueue — full queue means an
 *                   immediate `ERR BUSY`, the backpressure contract.
 *   dispatcher      single thread draining the queue into
 *                   MappingService::map. Each pop takes a *run*: the
 *                   head job plus every job queued right behind it for
 *                   the same tenant, up to maxReadsPerRequest reads,
 *                   mapped as one batch and split back into one reply
 *                   per request. One dispatcher is deliberate:
 *                   MappingService::map runs one batch at a time, and
 *                   parallelism lives *inside* a batch (the mapper's
 *                   own thread pool) — it comes
 *                   from a request's own reads and from the queued
 *                   requests coalesced with it, so small requests
 *                   still keep every worker busy: the paper's
 *                   read-level parallelism story.
 *
 * Shutdown (stop()) is graceful by construction: listeners close (no
 * new connections), every session fd gets shutdown(SHUT_RD) (no new
 * requests; in-flight responses still flush), sessions join, then the
 * queue stops and the dispatcher drains what was admitted — every
 * accepted MAP is answered, none duplicated.
 */

#ifndef SEGRAM_SRC_SERVE_SERVER_H
#define SEGRAM_SRC_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/metrics.h"
#include "src/serve/net.h"
#include "src/serve/service.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace segram::serve
{

/** Daemon knobs. */
struct ServerConfig
{
    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string unixPath;
    /** TCP host; empty disables the TCP listener. */
    std::string tcpHost;
    /** TCP port; 0 picks an ephemeral one (see boundTcpPort()). */
    int tcpPort = 0;
    /** Admission queue capacity (pending MAP requests). */
    size_t queueCapacity = 64;
    /** Largest read count a single MAP may carry, and the cap on a
     *  coalesced run's reads (so a run holds no more reads than one
     *  maximal request). */
    uint64_t maxReadsPerRequest = 65536;
};

/**
 * The serving loop over a caller-owned ServiceRegistry. Lifecycle:
 * construct, start(), serve until stop(), destroy (the destructor
 * stops if the caller did not).
 */
class Server
{
  public:
    Server(ServiceRegistry &registry, ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Binds the configured listeners and starts the accept and
     * dispatcher threads. @throws IoError when binding fails.
     */
    void start();

    /**
     * Graceful shutdown: stop accepting, let in-flight requests
     * drain and their responses flush, join everything. Idempotent.
     */
    void stop();

    /** Port the TCP listener actually bound (resolves port 0). */
    int boundTcpPort() const { return boundTcpPort_; }

    /** The STATS payload: sorted `<key> <value>` lines. */
    std::string statsText() const;

    ServiceRegistry &registry() { return registry_; }

  private:
    struct Session
    {
        UniqueFd fd;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void dispatchLoop();
    void sessionLoop(Session &session);
    /** Joins sessions whose loop has finished; called while accepting. */
    void reapSessions();
    /** Handles one MAP: payload read, admission, response. Returns
     *  false when the client vanished and the session should end. */
    bool handleMap(Session &session, LineReader &reader,
                   const Request &request);

    ServiceRegistry &registry_;
    const ServerConfig config_;
    AdmissionQueue queue_;

    UniqueFd unixListener_;
    UniqueFd tcpListener_;
    int boundTcpPort_ = -1;
    UniqueFd wakeRead_;  ///< self-pipe: stop() wakes the accept poll
    UniqueFd wakeWrite_;

    std::thread acceptThread_;
    std::thread dispatchThread_;
    util::Mutex sessionsMutex_;
    std::vector<std::unique_ptr<Session>> sessions_
        SEGRAM_GUARDED_BY(sessionsMutex_);

    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};

    // STATS counters.
    std::chrono::steady_clock::time_point startTime_;
    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> mapRequests_{0};
    std::atomic<uint64_t> readsReceived_{0};
    std::atomic<uint64_t> busyRejects_{0};
    std::atomic<uint64_t> mapBatches_{0};
    LatencyHistogram mapLatency_; ///< admission -> reply
    LatencyHistogram queueWait_;  ///< admission -> run starts mapping
};

} // namespace segram::serve

#endif // SEGRAM_SRC_SERVE_SERVER_H
