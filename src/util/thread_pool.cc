#include "src/util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "src/util/check.h"

namespace segram::util
{

ThreadPool::ThreadPool(int num_threads)
{
    const int n = std::max(1, num_threads);
    workers_.reserve(static_cast<size_t>(n));
    try {
        for (int i = 0; i < n; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    } catch (...) {
        // Destroying a vector of joinable threads calls
        // std::terminate; join the ones that did spawn first.
        {
            MutexLock lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &worker : workers_)
            worker.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
        // Abandon what no worker has claimed; running items finish.
        for (auto &entry : jobs_) {
            entry.second.unclaimed = 0;
            entry.second.ranges.clear();
        }
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

int
ThreadPool::defaultThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::workerLoop(int worker_id)
{
    MutexLock lock(mutex_);
    while (true) {
        // Explicit wait loop (not the predicate overload): the
        // thread-safety analysis cannot look inside a lambda, but it
        // checks these guarded reads fine in the enclosing scope,
        // where the capability is held.
        size_t item = 0;
        Job *job = nullptr;
        while (!stop_) {
            job = claimItem(worker_id, item);
            if (job != nullptr)
                break;
            wake_.wait(lock.native());
        }
        if (job == nullptr)
            return;
        ++job->running;
        lock.unlock();

        // The map node stays put while running > 0 (wait() erases a
        // job only once it is done), and fn is immutable after submit.
        std::exception_ptr error;
        const auto start = std::chrono::steady_clock::now();
        try {
            job->fn(item, worker_id);
        } catch (...) {
            error = std::current_exception();
        }
        const auto busy = std::chrono::steady_clock::now() - start;

        lock.lock();
        busyNs_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                .count());
        --job->running;
        if (error != nullptr && job->error == nullptr) {
            // The first failure abandons the job's unclaimed items.
            job->error = error;
            job->unclaimed = 0;
            job->ranges.clear();
        }
        if (job->done())
            done_.notify_all();
    }
}

ThreadPool::Job *
ThreadPool::claimItem(int worker_id, size_t &item)
{
    for (auto &entry : jobs_) {
        Job &job = entry.second;
        if (job.unclaimed == 0)
            continue;
        auto &ranges = job.ranges;
        auto &mine = ranges[ranges.size() == 1
                                ? 0
                                : static_cast<size_t>(worker_id)];
        if (mine.first >= mine.second) {
            // Own range drained: steal the back half of the richest
            // remaining range (back, so the victim keeps working
            // forward through its front undisturbed). unclaimed > 0
            // guarantees a victim.
            size_t victim = 0;
            size_t victim_remaining = 0;
            for (size_t v = 0; v < ranges.size(); ++v) {
                const size_t remaining =
                    ranges[v].second - ranges[v].first;
                if (remaining > victim_remaining) {
                    victim_remaining = remaining;
                    victim = v;
                }
            }
            auto &range = ranges[victim];
            const size_t take = (victim_remaining + 1) / 2;
            mine.first = range.second - take;
            mine.second = range.second;
            range.second = mine.first;
        }
        item = mine.first++;
        --job.unclaimed;
        return &job;
    }
    return nullptr;
}

ThreadPool::JobHandle
ThreadPool::enqueue(size_t num_items, size_t num_ranges, ItemFn fn)
{
    MutexLock lock(mutex_);
    const uint64_t id = nextJobId_++;
    Job &job = jobs_[id];
    job.fn = std::move(fn);
    job.unclaimed = num_items;
    if (num_items > 0) {
        job.ranges.resize(num_ranges);
        for (size_t r = 0; r < num_ranges; ++r) {
            job.ranges[r] = {num_items * r / num_ranges,
                             num_items * (r + 1) / num_ranges};
        }
        wake_.notify_all();
    }
    return {id};
}

ThreadPool::JobHandle
ThreadPool::submit(size_t num_items, ItemFn fn)
{
    return enqueue(num_items, workers_.size(), std::move(fn));
}

std::exception_ptr
ThreadPool::finish(JobHandle handle, bool abandon)
{
    MutexLock lock(mutex_);
    const auto it = jobs_.find(handle.id);
    SEGRAM_CHECK(it != jobs_.end(),
                 "ThreadPool: unknown or already-finished job");
    Job &job = it->second;
    if (abandon) {
        job.unclaimed = 0;
        job.ranges.clear();
    }
    while (!job.done())
        done_.wait(lock.native());
    std::exception_ptr error = job.error;
    jobs_.erase(it);
    return error;
}

void
ThreadPool::wait(JobHandle handle)
{
    if (const std::exception_ptr error = finish(handle, false))
        std::rethrow_exception(error);
}

void
ThreadPool::cancel(JobHandle handle)
{
    finish(handle, true);
}

void
ThreadPool::parallelFor(size_t num_items, size_t chunk_size,
                        const ChunkFn &fn)
{
    SEGRAM_CHECK(chunk_size >= 1, "chunk size must be >= 1");
    if (num_items == 0)
        return;
    const size_t num_chunks = (num_items + chunk_size - 1) / chunk_size;
    wait(enqueue(num_chunks, 1,
                 [&fn, num_items, chunk_size](size_t chunk, int worker) {
                     const size_t begin = chunk * chunk_size;
                     fn(begin, std::min(num_items, begin + chunk_size),
                        worker);
                 }));
}

void
ThreadPool::parallelSteal(size_t num_items, const ItemFn &fn)
{
    if (num_items > 0)
        wait(submit(num_items, fn));
}

double
ThreadPool::busySeconds() const
{
    MutexLock lock(mutex_);
    return static_cast<double>(busyNs_) * 1e-9;
}

} // namespace segram::util
