/**
 * @file
 * A small fixed-size thread pool with a chunked parallel-for, the
 * software stand-in for SeGraM's per-channel module parallelism: the
 * paper provisions one MinSeed+BitAlign pair per HBM2E channel and
 * scales linearly across channels; here each worker thread plays the
 * role of one channel's module pair, pulling chunks of independent
 * per-read work from a shared counter.
 *
 * No external dependencies — std::thread + condition_variable only.
 */

#ifndef SEGRAM_SRC_UTIL_THREAD_POOL_H
#define SEGRAM_SRC_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace segram::util
{

/**
 * Fixed pool of worker threads executing chunked index-range jobs.
 *
 * Workers are spawned once and reused across parallelFor() calls, so
 * per-batch dispatch costs no thread creation. One job runs at a time;
 * parallelFor() blocks the caller until the job completes and rethrows
 * the first worker exception, if any.
 */
class ThreadPool
{
  public:
    /**
     * Chunk callback: processes items [begin, end) as worker
     * @p worker_id (0-based, < size()). Called concurrently from
     * different workers on disjoint ranges.
     */
    using ChunkFn =
        std::function<void(size_t begin, size_t end, int worker_id)>;

    /** Item callback of parallelSteal: processes one work item. */
    using ItemFn = std::function<void(size_t item, int worker_id)>;

    /**
     * @param num_threads Worker count; clamped to >= 1.
     *                    ThreadPool(1) still runs work on the (single)
     *                    worker thread, keeping the execution path
     *                    identical across sizes.
     */
    explicit ThreadPool(int num_threads);

    /** Joins all workers (after finishing any in-flight job). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Runs @p fn over [0, num_items) split into chunks of
     * @p chunk_size, distributed dynamically across the workers.
     * Blocks until every chunk has been processed; rethrows the first
     * exception a worker hit (remaining chunks are abandoned).
     *
     * Chunk-to-worker assignment is nondeterministic under contention;
     * callers that need deterministic output must write results by
     * item index and keep per-worker accumulators whose merge is
     * order-independent (see core::ShardedBatchMapper).
     */
    void parallelFor(size_t num_items, size_t chunk_size,
                     const ChunkFn &fn);

    /**
     * Work-stealing variant for *skewed* item costs (e.g. per-shard
     * mapping work where chromosome sizes differ by 10x): [0,
     * num_items) is pre-partitioned into one contiguous range per
     * worker — so workers start far apart, preserving locality of
     * item ordering — and a worker that drains its own range steals
     * the back half of the richest remaining range. Blocks until all
     * items are processed; rethrows the first worker exception
     * (remaining items are abandoned).
     *
     * Item-to-worker assignment is nondeterministic under contention,
     * exactly like parallelFor; the same caller rules apply.
     */
    void parallelSteal(size_t num_items, const ItemFn &fn);

    /**
     * @return A reasonable default worker count for this host:
     *         std::thread::hardware_concurrency(), at least 1.
     */
    static int defaultThreads();

  private:
    void workerLoop(int worker_id);

    /**
     * Claims the next steal-mode item for @p worker_id: its own range
     * first, then half of the richest victim's remaining range, taken
     * from the back. @return false when no items remain anywhere.
     */
    bool claimStealItem(int worker_id, size_t &item)
        SEGRAM_REQUIRES(mutex_);

    std::vector<std::thread> workers_;

    Mutex mutex_;
    std::condition_variable wake_;    ///< signals workers: job or stop
    std::condition_variable done_;    ///< signals caller: job finished
    /** Current chunked job. */
    const ChunkFn *job_ SEGRAM_GUARDED_BY(mutex_) = nullptr;
    /** Current steal-mode job. */
    const ItemFn *stealJob_ SEGRAM_GUARDED_BY(mutex_) = nullptr;
    size_t jobItems_ SEGRAM_GUARDED_BY(mutex_) = 0;
    size_t jobChunk_ SEGRAM_GUARDED_BY(mutex_) = 1;
    /** Next unclaimed item index. */
    size_t jobNext_ SEGRAM_GUARDED_BY(mutex_) = 0;
    /** Steal mode: per-worker [next, end) ranges of unclaimed items. */
    std::vector<std::pair<size_t, size_t>> stealRanges_
        SEGRAM_GUARDED_BY(mutex_);
    /** Unclaimed steal-mode items. */
    size_t stealRemaining_ SEGRAM_GUARDED_BY(mutex_) = 0;
    /** Bumps per job: wakeup token. */
    uint64_t jobGeneration_ SEGRAM_GUARDED_BY(mutex_) = 0;
    /** Workers still inside the job. */
    int jobActiveWorkers_ SEGRAM_GUARDED_BY(mutex_) = 0;
    /** First failure, rethrown. */
    std::exception_ptr jobError_ SEGRAM_GUARDED_BY(mutex_);
    bool stop_ SEGRAM_GUARDED_BY(mutex_) = false;
};

} // namespace segram::util

#endif // SEGRAM_SRC_UTIL_THREAD_POOL_H
