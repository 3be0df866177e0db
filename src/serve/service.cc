#include "src/serve/service.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/io/paf.h"
#include "src/util/check.h"

namespace segram::serve
{

MappingService::MappingService(std::string name, std::string pack_path,
                               const ServiceConfig &config)
    : name_(std::move(name)),
      packPath_(std::move(pack_path)),
      config_(config),
      reference_(core::PreprocessedReference::load(packPath_,
                                                   config_.load)),
      mapper_(reference_, config_.segram, config_.batch)
{
    for (const auto &chromosome : reference_.chromosomes())
        targetLen_[chromosome.name] = chromosome.graph.totalSeqLen();
}

std::vector<Reply>
MappingService::map(std::span<const std::vector<ReadRecord>> requests)
{
    std::vector<std::string_view> seqs;
    for (const auto &reads : requests)
        for (const auto &read : reads)
            seqs.push_back(read.seq);

    std::vector<Reply> replies(requests.size());
    util::MutexLock lock(mapMutex_);
    const auto results = mapper_.mapBatch(
        std::span<const std::string_view>(seqs), &stats_);
    auto result = results.begin();
    for (size_t r = 0; r < requests.size(); ++r) {
        Reply &reply = replies[r];
        for (const auto &read : requests[r]) {
            const core::MultiMapResult &mapped = *result++;
            if (!mapped.mapped)
                continue;
            const io::PafRecord record = io::makePafRecord(
                read.name, read.seq.size(),
                mapped.reverseComplemented ? '-' : '+',
                mapped.chromosome, targetLen_.at(mapped.chromosome),
                mapped.linearStart, mapped.cigar);
            io::formatPaf(reply.payload, record);
            ++reply.lines;
        }
        ++requests_;
        reads_ += requests[r].size();
    }
    return replies;
}

MappingService::Snapshot
MappingService::snapshot() const
{
    Snapshot snap;
    snap.name = name_;
    snap.packPath = packPath_;
    snap.shards = mapper_.numShards();
    snap.threads = mapper_.threads();
    snap.residency = mapper_.residencyStats();
    util::MutexLock lock(mapMutex_);
    snap.requests = requests_;
    snap.reads = reads_;
    snap.readsMapped = stats_.readsMapped;
    snap.timings = stats_.timings;
    snap.regionsAligned = stats_.regionsAligned;
    return snap;
}

void
ServiceRegistry::add(std::shared_ptr<MappingService> service)
{
    util::MutexLock lock(mutex_);
    services_[service->name()] = std::move(service);
}

std::shared_ptr<MappingService>
ServiceRegistry::find(const std::string &name) const
{
    util::MutexLock lock(mutex_);
    const auto it = services_.find(name);
    return it == services_.end() ? nullptr : it->second;
}

void
ServiceRegistry::reload(const std::string &name,
                        const std::string &pack_path)
{
    // Snapshot the old tenant's config without the lock held during
    // the (potentially long) pack load.
    std::shared_ptr<MappingService> old = find(name);
    SEGRAM_CHECK(old != nullptr,
                 "cannot reload unknown reference '" + name + "'");
    // Build first, swap second: a broken pack throws here and the old
    // service keeps serving untouched.
    auto fresh = std::make_shared<MappingService>(name, pack_path,
                                                  old->config());
    util::MutexLock lock(mutex_);
    services_[name] = std::move(fresh);
    // `old` (plus any in-flight MapJob's shared_ptr) now holds the
    // last references; the drained service frees its mmap on release.
}

std::vector<std::shared_ptr<MappingService>>
ServiceRegistry::list() const
{
    std::vector<std::shared_ptr<MappingService>> services;
    {
        util::MutexLock lock(mutex_);
        services.reserve(services_.size());
        for (const auto &[name, service] : services_)
            services.push_back(service);
    }
    std::sort(services.begin(), services.end(),
              [](const auto &a, const auto &b) {
                  return a->name() < b->name();
              });
    return services;
}

} // namespace segram::serve
