/**
 * @file
 * The daemon's bounded admission queue — the backpressure valve
 * between session threads (one per connected client, enqueueing
 * parsed MAP requests) and the dispatcher (draining into the
 * mapping thread pool).
 *
 * The queue is the *only* place requests wait, and it is bounded:
 * when `tryPush` finds it full the session immediately answers
 * `ERR BUSY` (the protocol's one retryable status) instead of
 * buffering without limit — a daemon that queues unboundedly under
 * overload trades a clear, retryable rejection now for an OOM kill
 * later, which drops *every* tenant's in-flight work.
 */

#ifndef SEGRAM_SRC_SERVE_ADMISSION_H
#define SEGRAM_SRC_SERVE_ADMISSION_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "src/serve/protocol.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace segram::serve
{

class MappingService;

/** One admitted MAP request, waiting for the dispatcher. */
struct MapJob
{
    /**
     * The tenant resolved at admission time. Holding the shared_ptr
     * here is what makes pack reload drain-safe: a reload swaps the
     * registry entry, but every already-admitted job still runs
     * against the service (and mmap'd pack) it was admitted under.
     */
    std::shared_ptr<MappingService> service;
    std::vector<ReadRecord> reads;
    std::promise<Reply> reply;
    std::chrono::steady_clock::time_point admitted;
};

/**
 * Bounded MPSC job queue (many sessions push, the dispatcher pops).
 * All methods are thread-safe.
 */
class AdmissionQueue
{
  public:
    /** @param capacity Maximum queued (not yet popped) jobs; >= 1. */
    explicit AdmissionQueue(size_t capacity);

    /**
     * Admits @p job unless the queue is full or stopped.
     * @return True when admitted (the job was consumed); false when
     *         rejected (@p job is untouched, so the caller can still
     *         fulfil its promise with ERR BUSY).
     */
    bool tryPush(MapJob &&job);

    /**
     * Blocks for the head job and takes it, then keeps taking the jobs
     * queued right behind it while they hold the *same* service
     * pointer and the run's read total stays <= @p max_reads. The head
     * job is taken even when it alone exceeds the cap.
     *
     * A run never reaches past another tenant's job, and never mixes
     * jobs admitted before and after a reload (the swap gives them
     * different service pointers), so FIFO order and the drain-on-old
     * contract both hold.
     *
     * @return the run, in admission order; empty once stop() has been
     *         called *and* the queue has drained — the dispatcher's
     *         termination signal.
     */
    std::vector<MapJob> popRun(uint64_t max_reads);

    /**
     * Rejects all future pushes; popRun() keeps draining what was
     * already admitted (graceful shutdown maps everything it accepted).
     */
    void stop();

    /** Currently queued jobs (the STATS queue_depth field). */
    size_t depth() const;

    size_t capacity() const { return capacity_; }

  private:
    const size_t capacity_;
    mutable util::Mutex mutex_;
    std::condition_variable ready_;
    std::deque<MapJob> jobs_ SEGRAM_GUARDED_BY(mutex_);
    bool stopped_ SEGRAM_GUARDED_BY(mutex_) = false;
};

} // namespace segram::serve

#endif // SEGRAM_SRC_SERVE_ADMISSION_H
