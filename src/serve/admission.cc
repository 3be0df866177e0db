#include "src/serve/admission.h"

namespace segram::serve
{

AdmissionQueue::AdmissionQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

bool
AdmissionQueue::tryPush(MapJob &&job)
{
    {
        util::MutexLock lock(mutex_);
        if (stopped_ || jobs_.size() >= capacity_)
            return false;
        jobs_.push_back(std::move(job));
    }
    ready_.notify_one();
    return true;
}

std::vector<MapJob>
AdmissionQueue::popRun(uint64_t max_reads)
{
    std::vector<MapJob> run;
    util::MutexLock lock(mutex_);
    // Explicit loop: guarded reads stay visible to -Wthread-safety
    // (a predicate lambda would hide them from the analysis).
    while (!(stopped_ || !jobs_.empty()))
        ready_.wait(lock.native());
    uint64_t reads = 0;
    while (!jobs_.empty()) {
        MapJob &next = jobs_.front();
        if (!run.empty() &&
            (next.service != run.front().service ||
             reads + next.reads.size() > max_reads))
            break;
        reads += next.reads.size();
        run.push_back(std::move(next));
        jobs_.pop_front();
    }
    return run;
}

void
AdmissionQueue::stop()
{
    {
        util::MutexLock lock(mutex_);
        stopped_ = true;
    }
    ready_.notify_all();
}

size_t
AdmissionQueue::depth() const
{
    util::MutexLock lock(mutex_);
    return jobs_.size();
}

} // namespace segram::serve
