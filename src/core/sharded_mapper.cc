#include "src/core/sharded_mapper.h"

#include <algorithm>

#include "src/util/check.h"

namespace segram::core
{

std::vector<std::unique_ptr<MappingEngine>>
segramEngines(const PreprocessedReference &reference,
              const SegramConfig &config)
{
    std::vector<std::unique_ptr<MappingEngine>> engines;
    engines.reserve(reference.numChromosomes());
    for (size_t c = 0; c < reference.numChromosomes(); ++c)
        engines.push_back(
            std::make_unique<SegramMapper>(reference, c, config));
    return engines;
}

ShardedBatchMapper::ShardedBatchMapper(
    const PreprocessedReference &reference,
    std::vector<std::unique_ptr<MappingEngine>> engines,
    const ShardedBatchConfig &batch)
    : engines_(std::move(engines)), config_(batch),
      pool_(batch.threads > 0 ? batch.threads
                              : util::ThreadPool::defaultThreads()),
      workspaces_(static_cast<size_t>(pool_.size()))
{
    SEGRAM_CHECK(batch.chunkSize >= 1, "chunkSize must be >= 1");
    SEGRAM_CHECK(reference.numChromosomes() >= 1,
                 "reference has no chromosomes");
    SEGRAM_CHECK(engines_.size() == reference.numChromosomes(),
                 "ShardedBatchMapper needs one engine per chromosome: " +
                     std::to_string(engines_.size()) + " engines for " +
                     std::to_string(reference.numChromosomes()) +
                     " chromosomes");
    names_.reserve(reference.numChromosomes());
    for (size_t c = 0; c < reference.numChromosomes(); ++c) {
        SEGRAM_CHECK(engines_[c] != nullptr,
                     "null engine for chromosome " + reference.name(c));
        names_.push_back(reference.name(c));
    }
    if (batch.memBudgetBytes > 0) {
        residency_ = std::make_unique<ShardResidency>(
            reference, batch.memBudgetBytes);
    }
}

ShardedBatchMapper::ShardedBatchMapper(
    const PreprocessedReference &reference, const SegramConfig &config,
    const ShardedBatchConfig &batch)
    : ShardedBatchMapper(reference, segramEngines(reference, config),
                         batch)
{
}

std::vector<MultiMapResult>
ShardedBatchMapper::mapBatch(std::span<const std::string_view> reads,
                             PipelineStats *stats) const
{
    std::vector<MultiMapResult> results(reads.size());
    if (reads.empty())
        return results;

    const size_t num_shards = engines_.size();
    const size_t num_chunks =
        (reads.size() + config_.chunkSize - 1) / config_.chunkSize;

    // Per-(shard, read) partial results; filled by the grid, merged
    // below. Memory is shards x batch MapResults — the reason the CLI
    // streams bounded batches rather than whole files.
    std::vector<std::vector<MapResult>> partial(num_shards);
    for (auto &row : partial)
        row.resize(reads.size());

    std::vector<PipelineStats> worker_stats(
        static_cast<size_t>(pool_.size()));

    // Shard-major item order: items of one shard are contiguous, so
    // the initial per-worker partition of parallelSteal starts the
    // workers on different shards and each walks "its" shard's tables
    // while they are hot. Stealing rebalances when shard sizes skew.
    pool_.parallelSteal(
        num_shards * num_chunks, [&](size_t item, int worker) {
            const size_t shard = item / num_chunks;
            const size_t chunk = item % num_chunks;
            const size_t begin = chunk * config_.chunkSize;
            const size_t end =
                std::min(reads.size(), begin + config_.chunkSize);
            PipelineStats *local =
                stats != nullptr
                    ? &worker_stats[static_cast<size_t>(worker)]
                    : nullptr;
            MapWorkspace &workspace =
                workspaces_[static_cast<size_t>(worker)];
            const ShardResidency::Lease lease =
                residency_ != nullptr ? residency_->acquire(shard)
                                      : ShardResidency::Lease();
            // One mapMany per (chunk, shard) item lets the engine batch
            // window computations across the chunk's reads. The grid
            // partition is fixed by chunkSize, so batch groupings (and
            // the occupancy counters) are thread-count-invariant.
            engines_[shard]->mapMany(
                reads.subspan(begin, end - begin),
                std::span<MapResult>(partial[shard])
                    .subspan(begin, end - begin),
                local, workspace);
        });

    // The cross-chromosome merge, per read over ascending shard order:
    // lowest edit distance wins, ties go to the earlier chromosome.
    // Order-independent inputs + fixed merge order = deterministic
    // output.
    uint64_t mapped = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        MultiMapResult &best = results[i];
        for (size_t s = 0; s < num_shards; ++s) {
            MapResult &result = partial[s][i];
            if (result.mapped &&
                (!best.mapped ||
                 result.editDistance < best.editDistance)) {
                static_cast<MapResult &>(best) = std::move(result);
                best.chromosome = names_[s];
            }
        }
        if (best.mapped)
            ++mapped;
    }

    if (stats != nullptr) {
        // Work counters are commutative sums over the grid. The
        // read-level counters count logical reads, not (read x shard)
        // passes.
        // Thread-safety: each worker_stats slot was written by exactly
        // one pool worker, and parallelSteal's completion handshake
        // (pool mutex) happens-before this merge — no atomics needed.
        PipelineStats total;
        for (const auto &partial_stats : worker_stats)
            total += partial_stats;
        total.readsTotal = reads.size();
        total.readsMapped = mapped;
        *stats += total;
    }
    return results;
}

std::vector<MultiMapResult>
ShardedBatchMapper::mapBatch(std::span<const std::string> reads,
                             PipelineStats *stats) const
{
    std::vector<std::string_view> views(reads.begin(), reads.end());
    return mapBatch(std::span<const std::string_view>(views), stats);
}

ShardResidency::Stats
ShardedBatchMapper::residencyStats() const
{
    return residency_ != nullptr ? residency_->stats()
                                 : ShardResidency::Stats{};
}

} // namespace segram::core
