/**
 * @file
 * A small fixed-size thread pool running several index-range jobs at
 * once, the software stand-in for SeGraM's per-channel module
 * parallelism: the paper provisions one MinSeed+BitAlign pair per
 * HBM2E channel and keeps every pair fed; here each worker thread
 * plays one channel's module pair, pulling independent items from a
 * FIFO queue of jobs, so a worker that runs out of items of one job
 * moves straight on to the next one instead of idling at the boundary.
 *
 * No external dependencies — std::thread + condition_variable only.
 */

#ifndef SEGRAM_SRC_UTIL_THREAD_POOL_H
#define SEGRAM_SRC_UTIL_THREAD_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace segram::util
{

/**
 * Fixed pool of worker threads executing a FIFO queue of jobs.
 *
 * Workers are spawned once and reused, so dispatch costs no thread
 * creation. Any thread may submit() jobs and wait() for them; several
 * jobs can be queued at once. A worker takes its next item from the
 * oldest job that still has unclaimed items, so jobs drain in submit
 * order and a worker that claims the last item of one job continues
 * with the next job without sleeping. A worker runs one item at a
 * time, so state indexed by worker id (per-worker workspaces) is never
 * shared between two running items.
 *
 * Destruction: jobs that were submitted but not waited for are
 * abandoned — their unclaimed items never run, items already running
 * finish — and the destructor returns once every worker has joined. It
 * never blocks on work that has not started. Everything a running item
 * touches must therefore outlive the pool; an owner that keeps
 * per-job state in other members declares the pool after them, so the
 * pool is destroyed first (see core::ShardedBatchMapper).
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

    /** Item callback of submit()/parallelSteal(): one work item. */
    using ItemFn = std::function<void(size_t item, int worker_id)>;

    /** Names one submitted job, for wait(). */
    struct JobHandle
    {
        uint64_t id = 0;
    };

    /**
     * @param num_threads Worker count; clamped to >= 1.
     *                    ThreadPool(1) still runs work on the (single)
     *                    worker thread, keeping the execution path
     *                    identical across sizes.
     */
    explicit ThreadPool(int num_threads);

    /** Abandons unclaimed items, finishes running ones, joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Queues @p fn over the items [0, @p num_items) and returns at
     * once. The items are pre-partitioned into one contiguous range
     * per worker — so workers start far apart, preserving locality of
     * item ordering — and a worker that drains its own range steals
     * the back half of the richest remaining range, which absorbs
     * skewed item costs (per-shard mapping work where chromosome sizes
     * differ by 10x). The first exception an item throws abandons the
     * job's unclaimed items; other jobs are unaffected.
     *
     * Item-to-worker assignment is nondeterministic under contention;
     * callers that need deterministic output must write results by
     * item index and keep per-worker accumulators whose merge is
     * order-independent (see core::ShardedBatchMapper).
     *
     * @return The handle to wait() on; every handle must be waited
     *         or cancelled exactly once (or left to the destructor).
     */
    JobHandle submit(size_t num_items, ItemFn fn);

    /**
     * Blocks until @p job is done and rethrows the first
     * exception one of its items threw.
     * @throws InputError on a handle this pool does not hold (unknown,
     *         or already waited).
     */
    void wait(JobHandle job);

    /**
     * Abandons the unclaimed items of @p job, waits for its running
     * ones, and forgets it, error included — for a caller that no
     * longer needs the results (the output went away, or an earlier
     * job failed).
     * @throws InputError on a handle this pool does not hold.
     */
    void cancel(JobHandle job);

    /**
     * Runs @p fn over [0, num_items) split into chunks of
     * @p chunk_size, claimed in order from one shared range by
     * whichever worker is free (largest-first inputs stay
     * largest-first). submit-then-wait: blocks until every chunk has
     * been processed and rethrows the first exception.
     */
    void parallelFor(size_t num_items, size_t chunk_size,
                     const ChunkFn &fn);

    /** submit(num_items, fn) then wait(): the blocking steal job. */
    void parallelSteal(size_t num_items, const ItemFn &fn);

    /**
     * @return Wall seconds the workers have spent inside items, summed
     *         over workers, since the pool was built. Divided by
     *         size() x an interval's wall it gives the pool's busy
     *         fraction over that interval.
     */
    double busySeconds() const;

    /**
     * @return A reasonable default worker count for this host:
     *         std::thread::hardware_concurrency(), at least 1.
     */
    static int defaultThreads();

  private:
    /** One queued job. Guarded by mutex_ through jobs_. */
    struct Job
    {
        ItemFn fn; ///< immutable after submit; called unlocked
        /** [next, end) ranges of unclaimed items: one per worker for a
         *  steal job, a single shared one for parallelFor. */
        std::vector<std::pair<size_t, size_t>> ranges;
        size_t unclaimed = 0; ///< items no worker has claimed yet
        int running = 0;      ///< items being processed right now
        std::exception_ptr error; ///< first failure, rethrown by wait

        bool done() const { return unclaimed == 0 && running == 0; }
    };

    JobHandle enqueue(size_t num_items, size_t num_ranges, ItemFn fn);

    /** wait() and cancel(): waits for @p job (after abandoning its
     *  unclaimed items when @p abandon), forgets it, returns its error. */
    std::exception_ptr finish(JobHandle job, bool abandon);

    void workerLoop(int worker_id);

    /**
     * Claims the next item for @p worker_id from the oldest job with
     * unclaimed items: its own range of that job first, then half of
     * the richest other range, taken from the back.
     * @return The job, or nullptr when no job has unclaimed items.
     */
    Job *claimItem(int worker_id, size_t &item) SEGRAM_REQUIRES(mutex_);

    std::vector<std::thread> workers_;

    mutable Mutex mutex_;
    std::condition_variable wake_; ///< signals workers: items or stop
    std::condition_variable done_; ///< signals waiters: a job finished
    /** Submitted, not yet waited jobs by id; ids grow, so iteration
     *  order is submit order. Map nodes never move, so a worker keeps
     *  its Job pointer while it runs an item unlocked. */
    std::map<uint64_t, Job> jobs_ SEGRAM_GUARDED_BY(mutex_);
    uint64_t nextJobId_ SEGRAM_GUARDED_BY(mutex_) = 1;
    /** Summed item wall time, nanoseconds. */
    uint64_t busyNs_ SEGRAM_GUARDED_BY(mutex_) = 0;
    bool stop_ SEGRAM_GUARDED_BY(mutex_) = false;
};

/**
 * A cut of the index range [0, size) into `count` contiguous blocks of
 * about equal length, for a pass that runs one block per pool item.
 * Without a pool, or when the range is short, it is one block.
 */
struct BlockSplit
{
    /** Smallest block worth a pool item: below it a pass over
     *  16-byte elements costs less than its dispatch. */
    static constexpr size_t kMinBlock = size_t{1} << 14;
    /** Blocks per worker, so that a worker slowed by another tenant
     *  holds up a pass by a fraction of its share, not all of it. */
    static constexpr size_t kBlocksPerWorker = 4;

    BlockSplit(size_t size, const ThreadPool *pool)
        : size(size),
          count(pool == nullptr
                    ? 1
                    : std::clamp<size_t>(
                          size / kMinBlock, 1,
                          kBlocksPerWorker *
                              static_cast<size_t>(pool->size())))
    {
    }

    size_t begin(size_t block) const { return size * block / count; }
    size_t end(size_t block) const { return begin(block + 1); }

    size_t size;
    size_t count;
};

/**
 * Runs @p fn(item) for every item < @p num_items: as one steal job on
 * @p pool when it is set and there are two items or more, in order on
 * the calling thread otherwise. The call blocks, so it must not come
 * from a worker of @p pool (a worker waiting on its own pool can
 * deadlock it).
 */
template <typename Fn>
void
forEachItem(ThreadPool *pool, size_t num_items, Fn &&fn)
{
    if (pool == nullptr || num_items < 2) {
        for (size_t item = 0; item < num_items; ++item)
            fn(item);
        return;
    }
    pool->parallelSteal(num_items,
                        [&fn](size_t item, int) { fn(item); });
}

} // namespace segram::util

#endif // SEGRAM_SRC_UTIL_THREAD_POOL_H
