#include "src/serve/server.h"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <future>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "src/util/bitops_simd.h"
#include "src/util/check.h"

namespace segram::serve
{

namespace
{

void
appendStat(std::string &out, std::string_view key, uint64_t value)
{
    out.append(key);
    out.push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
}

void
appendStat(std::string &out, std::string_view key,
           std::string_view value)
{
    out.append(key);
    out.push_back(' ');
    out.append(value);
    out.push_back('\n');
}

void
appendStat(std::string &out, std::string_view key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", value);
    out.append(key);
    out.push_back(' ');
    out.append(buffer);
    out.push_back('\n');
}

uint64_t
elapsedMicros(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
}

} // namespace

Server::Server(ServiceRegistry &registry, ServerConfig config)
    : registry_(registry),
      config_(std::move(config)),
      queue_(config_.queueCapacity)
{
}

Server::~Server() { stop(); }

void
Server::start()
{
    SEGRAM_CHECK(!started_.load(), "server already started");
    SEGRAM_CHECK(!config_.unixPath.empty() || !config_.tcpHost.empty(),
                 "server needs a unix socket path or a TCP listen "
                 "address");
    if (!config_.unixPath.empty())
        unixListener_ = listenUnix(config_.unixPath);
    if (!config_.tcpHost.empty())
        tcpListener_ =
            listenTcp(config_.tcpHost, config_.tcpPort, &boundTcpPort_);

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
        const int saved_errno = errno;
        throw IoError("pipe2() failed", saved_errno);
    }
    wakeRead_ = UniqueFd(pipe_fds[0]);
    wakeWrite_ = UniqueFd(pipe_fds[1]);

    startTime_ = std::chrono::steady_clock::now();
    started_.store(true);
    dispatchThread_ = std::thread([this] { dispatchLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::stop()
{
    if (!started_.load() || stopping_.exchange(true))
        return;
    // Wake the accept poll; it closes the listeners on its way out.
    const char byte = 'x';
    [[maybe_unused]] const ssize_t written =
        ::write(wakeWrite_.get(), &byte, 1);
    if (acceptThread_.joinable())
        acceptThread_.join();

    // No new requests: sessions see EOF on their next read, but
    // responses already being written still flush (SHUT_RD only).
    {
        util::MutexLock lock(sessionsMutex_);
        for (const auto &session : sessions_)
            if (session->fd.valid())
                ::shutdown(session->fd.get(), SHUT_RD);
    }
    // Sessions drain: every admitted MAP still gets its response
    // (the dispatcher is alive until after this join).
    for (;;) {
        std::unique_ptr<Session> session;
        {
            util::MutexLock lock(sessionsMutex_);
            if (sessions_.empty())
                break;
            session = std::move(sessions_.back());
            sessions_.pop_back();
        }
        if (session->thread.joinable())
            session->thread.join();
    }

    queue_.stop();
    if (dispatchThread_.joinable())
        dispatchThread_.join();

    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd fds[3];
        nfds_t count = 0;
        fds[count++] = {wakeRead_.get(), POLLIN, 0};
        int unix_index = -1;
        int tcp_index = -1;
        if (unixListener_.valid()) {
            unix_index = static_cast<int>(count);
            fds[count++] = {unixListener_.get(), POLLIN, 0};
        }
        if (tcpListener_.valid()) {
            tcp_index = static_cast<int>(count);
            fds[count++] = {tcpListener_.get(), POLLIN, 0};
        }
        const int ready = ::poll(fds, count, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[0].revents != 0)
            break; // stop() wrote the wake byte
        for (const int index : {unix_index, tcp_index}) {
            if (index < 0 || (fds[index].revents & POLLIN) == 0)
                continue;
            UniqueFd client(::accept4(fds[index].fd, nullptr, nullptr,
                                      SOCK_CLOEXEC));
            if (!client.valid())
                continue; // transient (ECONNABORTED, EMFILE, ...)
            connections_.fetch_add(1, std::memory_order_relaxed);
            auto session = std::make_unique<Session>();
            session->fd = std::move(client);
            Session *raw = session.get();
            {
                util::MutexLock lock(sessionsMutex_);
                sessions_.push_back(std::move(session));
            }
            raw->thread = std::thread([this, raw] {
                sessionLoop(*raw);
                raw->done.store(true);
            });
        }
        reapSessions();
    }
    unixListener_.reset();
    tcpListener_.reset();
}

void
Server::reapSessions()
{
    std::vector<std::unique_ptr<Session>> finished;
    {
        util::MutexLock lock(sessionsMutex_);
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if ((*it)->done.load()) {
                finished.push_back(std::move(*it));
                it = sessions_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &session : finished)
        if (session->thread.joinable())
            session->thread.join();
}

void
Server::dispatchLoop()
{
    for (;;) {
        std::vector<MapJob> run =
            queue_.popRun(config_.maxReadsPerRequest);
        if (run.empty())
            return;
        const auto started = std::chrono::steady_clock::now();
        std::vector<std::vector<ReadRecord>> requests;
        requests.reserve(run.size());
        for (auto &job : run) {
            queueWait_.record(elapsedMicros(job.admitted, started));
            requests.push_back(std::move(job.reads));
        }
        mapBatches_.fetch_add(1, std::memory_order_relaxed);
        std::vector<Reply> replies;
        try {
            replies = run.front().service->map(requests);
        } catch (const std::exception &error) {
            Reply failed;
            failed.ok = false;
            failed.code = std::string(kErrInternal);
            failed.message = error.what();
            replies.assign(run.size(), failed);
        }
        const auto finished = std::chrono::steady_clock::now();
        for (size_t i = 0; i < run.size(); ++i) {
            mapLatency_.record(elapsedMicros(run[i].admitted, finished));
            run[i].reply.set_value(std::move(replies[i]));
        }
    }
}

bool
Server::handleMap(Session &session, LineReader &reader,
                  const Request &request)
{
    // Read the whole payload before validating it: a malformed read
    // line must not leave half a payload in the stream, or every
    // later request would desynchronize.
    std::vector<std::string> raw(request.readCount);
    for (auto &line : raw)
        if (!reader.readLine(line))
            return false; // peer vanished mid-payload
    readsReceived_.fetch_add(request.readCount,
                             std::memory_order_relaxed);

    std::shared_ptr<MappingService> service =
        registry_.find(request.reference);
    if (service == nullptr)
        return sendAll(session.fd.get(),
                       formatError(kErrNoRef, "unknown reference '" +
                                                  request.reference +
                                                  "'"));
    MapJob job;
    job.service = std::move(service);
    job.reads.reserve(raw.size());
    try {
        for (const auto &line : raw)
            job.reads.push_back(parseReadLine(line));
    } catch (const InputError &error) {
        return sendAll(session.fd.get(),
                       formatError(kErrBadReq, error.what()));
    }
    job.admitted = std::chrono::steady_clock::now();
    std::future<Reply> future = job.reply.get_future();
    if (!queue_.tryPush(std::move(job))) {
        busyRejects_.fetch_add(1, std::memory_order_relaxed);
        return sendAll(session.fd.get(),
                       formatError(kErrBusy,
                                   "admission queue full (capacity " +
                                       std::to_string(
                                           queue_.capacity()) +
                                       "), retry"));
    }
    mapRequests_.fetch_add(1, std::memory_order_relaxed);
    const Reply reply = future.get();
    if (!reply.ok)
        return sendAll(session.fd.get(),
                       formatError(reply.code, reply.message));
    return sendAll(session.fd.get(),
                   formatOkHead(reply.lines) + reply.payload);
}

void
Server::sessionLoop(Session &session)
{
    LineReader reader(session.fd.get());
    std::string line;
    try {
        while (reader.readLine(line)) {
            requests_.fetch_add(1, std::memory_order_relaxed);
            Request request;
            try {
                request = parseRequestLine(line,
                                           config_.maxReadsPerRequest);
            } catch (const InputError &error) {
                if (!sendAll(session.fd.get(),
                             formatError(kErrBadReq, error.what())))
                    break;
                continue;
            }
            bool alive = true;
            switch (request.kind) {
            case RequestKind::Ping:
                alive = sendAll(session.fd.get(), formatOkHead(0));
                break;
            case RequestKind::Quit:
                sendAll(session.fd.get(), formatOkHead(0));
                alive = false;
                break;
            case RequestKind::Stats: {
                const std::string text = statsText();
                uint64_t lines = 0;
                for (const char c : text)
                    lines += c == '\n' ? 1 : 0;
                alive = sendAll(session.fd.get(),
                                formatOkHead(lines) + text);
                break;
            }
            case RequestKind::Reload:
                try {
                    registry_.reload(request.reference,
                                     request.packPath);
                    alive = sendAll(session.fd.get(), formatOkHead(0));
                } catch (const InputError &error) {
                    const bool known =
                        registry_.find(request.reference) != nullptr;
                    alive = sendAll(
                        session.fd.get(),
                        formatError(known ? kErrInternal : kErrNoRef,
                                    error.what()));
                }
                break;
            case RequestKind::Map:
                alive = handleMap(session, reader, request);
                break;
            }
            if (!alive)
                break;
        }
    } catch (const std::exception &) {
        // Transport/framing failure on one session: drop the client,
        // keep the daemon serving.
    }
    // The fd closes when the Session is reaped: stop() reads it (for
    // SHUT_RD) under the sessions lock, so the loop must not race a
    // reset() here.
}

std::string
Server::statsText() const
{
    std::string out;
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startTime_)
            .count();
    appendStat(out, "server.uptime_sec", uptime);
    appendStat(out, "server.connections",
               connections_.load(std::memory_order_relaxed));
    appendStat(out, "server.requests",
               requests_.load(std::memory_order_relaxed));
    appendStat(out, "server.map_requests",
               mapRequests_.load(std::memory_order_relaxed));
    appendStat(out, "server.map_batches",
               mapBatches_.load(std::memory_order_relaxed));
    appendStat(out, "server.reads",
               readsReceived_.load(std::memory_order_relaxed));
    appendStat(out, "server.busy_rejects",
               busyRejects_.load(std::memory_order_relaxed));
    appendStat(out, "server.queue_depth",
               static_cast<uint64_t>(queue_.depth()));
    appendStat(out, "server.queue_capacity",
               static_cast<uint64_t>(queue_.capacity()));
    appendStat(out, "server.latency_p50_ms",
               mapLatency_.percentileMs(0.5));
    appendStat(out, "server.latency_p99_ms",
               mapLatency_.percentileMs(0.99));
    appendStat(out, "server.latency_mean_ms", mapLatency_.meanMs());
    appendStat(out, "server.queue_wait_p50_ms",
               queueWait_.percentileMs(0.5));
    appendStat(out, "server.queue_wait_p99_ms",
               queueWait_.percentileMs(0.99));
    appendStat(out, "server.kernel_backend",
               bitops::activeBackendName());
    for (const auto &service : registry_.list()) {
        const auto snap = service->snapshot();
        const std::string prefix = "tenant." + snap.name + ".";
        appendStat(out, prefix + "pack", snap.packPath);
        appendStat(out, prefix + "requests", snap.requests);
        appendStat(out, prefix + "reads", snap.reads);
        appendStat(out, prefix + "reads_mapped", snap.readsMapped);
        appendStat(out, prefix + "shards",
                   static_cast<uint64_t>(snap.shards));
        appendStat(out, prefix + "threads",
                   static_cast<uint64_t>(snap.threads));
        appendStat(out, prefix + "regions_aligned",
                   snap.regionsAligned);
        appendStat(out, prefix + "seeding_sec",
                   snap.timings.seedingSec);
        appendStat(out, prefix + "linearize_sec",
                   snap.timings.linearizeSec);
        appendStat(out, prefix + "align_sec", snap.timings.alignSec);
        appendStat(out, prefix + "residency_peak_bytes",
                   snap.residency.peakResidentBytes);
        appendStat(out, prefix + "residency_faults",
                   snap.residency.faults);
        appendStat(out, prefix + "residency_evictions",
                   snap.residency.evictions);
    }
    return out;
}

} // namespace segram::serve
