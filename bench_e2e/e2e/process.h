/**
 * @file
 * Child processes for the end-to-end bench: spawn a real `segram`
 * binary with its stdout/stderr in files, then reap it with wait4 so
 * the wall time (spawn to exit) and the child's own peak RSS are both
 * measured from outside the program.
 *
 * Children are spawned by a small server process forked when the
 * bench starts. Linux carries a process's RSS high-water mark across
 * exec (exec_mmap folds the old mm's hiwater into ru_maxrss), so a
 * child spawned straight from the bench — which holds generated
 * inputs and PAF text — would report the bench's own peak as its
 * ru_maxrss. The server stays a few MiB, below any child measured.
 */

#ifndef SEGRAM_BENCH_E2E_PROCESS_H
#define SEGRAM_BENCH_E2E_PROCESS_H

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <poll.h>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

extern char **environ;

namespace segram::e2e
{

/** How one child process ended. */
struct ChildResult
{
    int32_t exitCode = -1; ///< exit status; -1 when killed by a signal
    int32_t timedOut = 0;
    double wallSec = 0.0;  ///< spawn to exit
    double maxRssMib = 0.0;

    bool ok() const { return exitCode == 0 && timedOut == 0; }
};

/**
 * The spawn server. Construct it first thing in main(), while the
 * bench is small; every Child goes through it. Requests are served one
 * at a time over a pipe pair. Destroying the Spawner (or the bench
 * dying) closes the pipe; the server then kills and reaps whatever it
 * still runs, and exits.
 */
class Spawner
{
  public:
    Spawner()
    {
        int to_server[2];
        int from_server[2];
        if (::pipe2(to_server, O_CLOEXEC) != 0 ||
            ::pipe2(from_server, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        std::fflush(nullptr);
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::close(to_server[1]);
            ::close(from_server[0]);
            serve(to_server[0], from_server[1]);
            ::_exit(0);
        }
        ::close(to_server[0]);
        ::close(from_server[1]);
        out_ = to_server[1];
        in_ = from_server[0];
    }

    ~Spawner()
    {
        ::close(out_);
        ::close(in_);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }

    Spawner(const Spawner &) = delete;
    Spawner &operator=(const Spawner &) = delete;

    /** Starts @p argv (stdin /dev/null, stdout/stderr truncated into
     *  the files); returns its pid. @throws std::runtime_error. */
    int32_t
    spawn(const std::vector<std::string> &argv,
          const std::string &stdout_path, const std::string &stderr_path)
    {
        std::vector<std::string> message = {stdout_path, stderr_path};
        message.insert(message.end(), argv.begin(), argv.end());
        request(kSpawn, 0, 0.0, message);
        int32_t pid = 0;
        readAll(in_, &pid, sizeof(pid));
        if (pid <= 0)
            throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                                     std::strerror(-pid));
        return pid;
    }

    void signal(int32_t pid, int sig) { request(kSignal, pid, sig, {}); }

    /** Blocks until @p pid exits; SIGKILLs it after @p timeout_sec. */
    ChildResult
    wait(int32_t pid, double timeout_sec)
    {
        request(kWait, pid, timeout_sec, {});
        ChildResult result;
        readAll(in_, &result, sizeof(result));
        return result;
    }

  private:
    enum Op : int32_t
    {
        kSpawn,
        kSignal,
        kWait
    };

    struct Header
    {
        int32_t op;
        int32_t pid;
        double value; ///< signal number or timeout seconds
        uint32_t strings;
    };

    static void
    writeAll(int fd, const void *data, size_t size)
    {
        const char *p = static_cast<const char *>(data);
        while (size > 0) {
            const ssize_t n = ::write(fd, p, size);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("spawn server pipe closed");
            p += n;
            size -= static_cast<size_t>(n);
        }
    }

    /** False on a clean EOF before the first byte. */
    static bool
    readAll(int fd, void *data, size_t size)
    {
        char *p = static_cast<char *>(data);
        const size_t wanted = size;
        while (size > 0) {
            const ssize_t n = ::read(fd, p, size);
            if (n < 0 && errno == EINTR)
                continue;
            if (n == 0 && size == wanted)
                return false;
            if (n <= 0)
                throw std::runtime_error("spawn server pipe closed");
            p += n;
            size -= static_cast<size_t>(n);
        }
        return true;
    }

    void
    request(Op op, int32_t pid, double value,
            const std::vector<std::string> &strings)
    {
        const Header header{op, pid, value,
                            static_cast<uint32_t>(strings.size())};
        writeAll(out_, &header, sizeof(header));
        for (const auto &text : strings) {
            const auto size = static_cast<uint32_t>(text.size());
            writeAll(out_, &size, sizeof(size));
            writeAll(out_, text.data(), size);
        }
    }

    /** The server loop (runs in the forked process). */
    static void
    serve(int in, int out)
    {
        std::map<int32_t, std::chrono::steady_clock::time_point> started;
        try {
            Header header{};
            while (readAll(in, &header, sizeof(header))) {
                std::vector<std::string> strings(header.strings);
                for (auto &text : strings) {
                    uint32_t size = 0;
                    readAll(in, &size, sizeof(size));
                    text.resize(size);
                    readAll(in, text.data(), size);
                }
                if (header.op == kSpawn) {
                    int32_t pid = spawnChild(strings);
                    if (pid > 0)
                        started[pid] = std::chrono::steady_clock::now();
                    writeAll(out, &pid, sizeof(pid));
                } else if (header.op == kSignal) {
                    if (started.count(header.pid) != 0)
                        ::kill(header.pid, static_cast<int>(header.value));
                } else if (header.op == kWait) {
                    ChildResult result;
                    const auto it = started.find(header.pid);
                    if (it != started.end()) {
                        result = reap(header.pid, it->second, header.value);
                        started.erase(it);
                    }
                    writeAll(out, &result, sizeof(result));
                }
            }
        } catch (const std::exception &) {
            // The bench went away; fall through to the cleanup.
        }
        for (const auto &entry : started) {
            ::kill(entry.first, SIGKILL);
            int status = 0;
            while (::waitpid(entry.first, &status, 0) < 0 &&
                   errno == EINTR) {
            }
        }
    }

    /** strings = {stdout, stderr, argv...}; returns pid or -errno. */
    static int32_t
    spawnChild(const std::vector<std::string> &strings)
    {
        std::vector<char *> args;
        for (size_t i = 2; i < strings.size(); ++i)
            args.push_back(const_cast<char *>(strings[i].c_str()));
        args.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 0, "/dev/null",
                                         O_RDONLY, 0);
        posix_spawn_file_actions_addopen(&actions, 1, strings[0].c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_addopen(&actions, 2, strings[1].c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        pid_t pid = -1;
        const int rc = posix_spawn(&pid, args[0], &actions, nullptr,
                                   args.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        return rc == 0 ? static_cast<int32_t>(pid) : -rc;
    }

    /** Waits for @p pid's exit (pidfd poll, so the wall is exact), then
     *  reaps it with wait4 for its rusage. */
    static ChildResult
    reap(int32_t pid, std::chrono::steady_clock::time_point start,
         double timeout_sec)
    {
        ChildResult result;
        const auto deadline =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(timeout_sec));
        const int pidfd =
            static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
        siginfo_t info{};
        while (true) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) {
                result.timedOut = 1;
                ::kill(pid, SIGKILL);
                break;
            }
            const auto left_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count() +
                1;
            if (pidfd >= 0) {
                pollfd fd{pidfd, POLLIN, 0};
                if (::poll(&fd, 1, static_cast<int>(left_ms)) > 0)
                    break;
            } else {
                // No pidfd (kernel < 5.3): poll the exit state.
                info.si_pid = 0;
                if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                             WEXITED | WNOHANG | WNOWAIT) == 0 &&
                    info.si_pid == pid)
                    break;
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
        }
        result.wallSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        if (pidfd >= 0)
            ::close(pidfd);
        int status = 0;
        struct rusage usage
        {
        };
        while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        result.maxRssMib = static_cast<double>(usage.ru_maxrss) / 1024.0;
        return result;
    }

    pid_t pid_ = -1;
    int out_ = -1;
    int in_ = -1;
};

/**
 * One running child. The destructor kills and reaps a child that was
 * never waited for, so no process outlives the bench on any path.
 */
class Child
{
  public:
    Child(Spawner &spawner, const std::vector<std::string> &argv,
          const std::string &stdout_path, const std::string &stderr_path)
        : spawner_(spawner), started_(std::chrono::steady_clock::now()),
          pid_(spawner.spawn(argv, stdout_path, stderr_path))
    {
    }

    ~Child()
    {
        if (pid_ > 0) {
            try {
                spawner_.signal(pid_, SIGKILL);
                spawner_.wait(pid_, 10.0);
            } catch (const std::exception &) {
                // The server already killed it on its way out.
            }
        }
    }

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;
    Child(Child &&) = delete;
    Child &operator=(Child &&) = delete;

    std::chrono::steady_clock::time_point started() const { return started_; }

    void signal(int sig) { spawner_.signal(pid_, sig); }

    ChildResult
    wait(double timeout_sec)
    {
        const ChildResult result = spawner_.wait(pid_, timeout_sec);
        pid_ = -1;
        return result;
    }

  private:
    Spawner &spawner_;
    std::chrono::steady_clock::time_point started_;
    int32_t pid_ = -1;
};

/** Spawns @p argv and waits for it (see Child). */
inline ChildResult
runChild(Spawner &spawner, const std::vector<std::string> &argv,
         const std::string &stdout_path, const std::string &stderr_path,
         double timeout_sec)
{
    Child child(spawner, argv, stdout_path, stderr_path);
    return child.wait(timeout_sec);
}

} // namespace segram::e2e

#endif // SEGRAM_BENCH_E2E_PROCESS_H
