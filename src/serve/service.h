/**
 * @file
 * MappingService and ServiceRegistry: the daemon's tenants.
 *
 * A MappingService is one mmap'd `.segram` pack plus the
 * ShardedBatchMapper thread pool that maps against it — loaded once
 * and reused across every request, which is the whole point of the
 * daemon (the pre-processing cost of `segram map` is paid per
 * invocation; here it is paid per reload). The PAF it produces is
 * byte-identical to offline `segram map <pack> <reads>` because both
 * run core::SegramConfig::product through the same sharded driver and
 * format through the same core::PafFormatter.
 *
 * The ServiceRegistry maps reference names to shared_ptr services.
 * Reload is an atomic pointer swap: the new pack is fully loaded
 * *before* the swap (a broken pack leaves the old tenant serving),
 * requests admitted before the swap keep their shared_ptr and drain
 * against the old pack, and the old service frees itself when the
 * last such request completes. No lock is held while mapping.
 */

#ifndef SEGRAM_SRC_SERVE_SERVICE_H
#define SEGRAM_SRC_SERVE_SERVICE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/io/pack.h"
#include "src/serve/protocol.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace segram::serve
{

/** Everything a tenant needs to build (and rebuild, on reload). */
struct ServiceConfig
{
    /** What `segram serve` runs: the product pipeline at the default
     *  error rate. */
    core::SegramConfig segram = core::SegramConfig::product();
    core::ShardedBatchConfig batch;
    io::PackLoadOptions load;
};

/** One loaded pack + its mapping pool; the unit of tenancy. */
class MappingService
{
  public:
    /**
     * Loads @p pack_path (mmap) and builds the sharded mapper.
     * @throws InputError when the pack fails validation.
     */
    MappingService(std::string name, std::string pack_path,
                   const ServiceConfig &config);

    /**
     * Maps a run of requests as one batch and formats each request's
     * PAF payload into its own Reply, in read order. Calls are
     * serialized internally (ShardedBatchMapper::mapBatch requires
     * it); concurrency comes from the pool *inside* the batch, which
     * spans every read of every request in the run.
     *
     * Each reply is byte-identical to mapping its request alone:
     * per-read results do not depend on which other reads share the
     * batch. Never throws for mapping itself; each Reply has ok=true
     * and one PAF line per mapped read (unmapped reads produce no
     * line, like `segram map`).
     */
    std::vector<Reply> map(std::span<const std::vector<ReadRecord>> requests);

    /** Point-in-time counters for the STATS endpoint. */
    struct Snapshot
    {
        std::string name;
        std::string packPath;
        uint64_t requests = 0;
        uint64_t reads = 0;
        uint64_t readsMapped = 0;
        size_t shards = 0;
        int threads = 0;
        core::StageTimings timings;
        uint64_t regionsAligned = 0;
        core::ShardResidency::Stats residency;
    };

    Snapshot snapshot() const;

    const std::string &name() const { return name_; }
    const std::string &packPath() const { return packPath_; }
    const ServiceConfig &config() const { return config_; }

  private:
    std::string name_;
    std::string packPath_;
    ServiceConfig config_;
    // Declaration order is load-bearing: the mapper borrows the
    // reference's mmap'd tables, so the reference must outlive it
    // (members destroy in reverse order).
    core::PreprocessedReference reference_;
    /**
     * Not GUARDED_BY(mapMutex_): mapBatch calls are serialized by
     * map() taking the mutex, but the immutable metadata reads
     * (numShards/threads) and the internally synchronized
     * residencyStats() are deliberately lock-free for snapshot().
     */
    core::ShardedBatchMapper mapper_;
    core::PafFormatter formatter_; ///< borrows reference_ too

    mutable util::Mutex mapMutex_; ///< serializes mapBatch + counters
    uint64_t requests_ SEGRAM_GUARDED_BY(mapMutex_) = 0;
    uint64_t reads_ SEGRAM_GUARDED_BY(mapMutex_) = 0;
    core::PipelineStats stats_ SEGRAM_GUARDED_BY(mapMutex_);
};

/**
 * Name -> service map with atomic reload. All methods thread-safe;
 * the registry lock is never held while mapping or loading a pack.
 */
class ServiceRegistry
{
  public:
    /** Adds or replaces the tenant @p service serves. */
    void add(std::shared_ptr<MappingService> service);

    /** The current service for @p name, or null. */
    std::shared_ptr<MappingService> find(const std::string &name) const;

    /**
     * Builds a fresh service from @p pack_path (reusing the old
     * tenant's config) and swaps it in. The old service keeps serving
     * until the swap and drains afterwards via its shared_ptr.
     *
     * @throws InputError when @p name is unknown or the pack is
     *         invalid — in both cases the registry is unchanged.
     */
    void reload(const std::string &name, const std::string &pack_path);

    /** Current tenants, sorted by name (stable STATS output). */
    std::vector<std::shared_ptr<MappingService>> list() const;

  private:
    mutable util::Mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<MappingService>>
        services_ SEGRAM_GUARDED_BY(mutex_);
};

} // namespace segram::serve

#endif // SEGRAM_SRC_SERVE_SERVICE_H
