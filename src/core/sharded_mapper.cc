#include "src/core/sharded_mapper.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/sync.h"

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

struct ShardedBatchMapper::Batch
{
    std::span<const std::string_view> reads;
    PipelineStats *stats = nullptr;
    size_t numChunks = 0;
    /** Per-(shard, read) partial results; filled by the grid, merged
     *  at collect. Memory is shards x batch MapResults per batch in
     *  flight — the reason callers stream bounded batches rather than
     *  whole files. */
    std::vector<std::vector<MapResult>> partial;
    /** Slot w is written only by pool worker w. */
    std::vector<PipelineStats> workerStats;
};

namespace
{

int
resolvedThreads(const ShardedBatchConfig &batch)
{
    return batch.threads > 0 ? batch.threads
                             : util::ThreadPool::defaultThreads();
}

} // namespace

ShardedBatchMapper::ShardedBatchMapper(
    const PreprocessedReference &reference,
    std::vector<std::unique_ptr<MappingEngine>> engines,
    const ShardedBatchConfig &batch)
    : engines_(std::move(engines)), config_(batch),
      workspaces_(static_cast<size_t>(resolvedThreads(batch))),
      pool_(resolvedThreads(batch))
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

ShardedBatchMapper::~ShardedBatchMapper() = default;

ShardedBatchMapper::Ticket
ShardedBatchMapper::submit(std::span<const std::string_view> reads,
                           PipelineStats *stats) const
{
    auto batch = std::make_unique<Batch>();
    batch->reads = reads;
    batch->stats = stats;
    batch->numChunks =
        (reads.size() + config_.chunkSize - 1) / config_.chunkSize;
    batch->partial.resize(engines_.size());
    for (auto &row : batch->partial)
        row.resize(reads.size());
    if (stats != nullptr)
        batch->workerStats.resize(static_cast<size_t>(pool_.size()));

    // Shard-major item order: items of one shard are contiguous, so
    // the initial per-worker partition of the steal job starts the
    // workers on different shards and each walks "its" shard's tables
    // while they are hot. Stealing rebalances when shard sizes skew.
    // Workers reach the batch through this pointer, never through
    // batches_, and the Batch never moves once allocated.
    Batch *const job = batch.get();
    const util::ThreadPool::JobHandle handle = pool_.submit(
        engines_.size() * job->numChunks, [this, job](size_t item,
                                                      int worker) {
            const size_t shard = item / job->numChunks;
            const size_t chunk = item % job->numChunks;
            const size_t begin = chunk * config_.chunkSize;
            const size_t end =
                std::min(job->reads.size(), begin + config_.chunkSize);
            PipelineStats *local =
                job->stats != nullptr
                    ? &job->workerStats[static_cast<size_t>(worker)]
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
                job->reads.subspan(begin, end - begin),
                std::span<MapResult>(job->partial[shard])
                    .subspan(begin, end - begin),
                local, workspace);
        });
    util::MutexLock lock(batchesMutex_);
    batches_.emplace(handle.id, std::move(batch));
    return {handle.id};
}

std::unique_ptr<ShardedBatchMapper::Batch>
ShardedBatchMapper::take(Ticket ticket) const
{
    util::MutexLock lock(batchesMutex_);
    const auto it = batches_.find(ticket.id);
    SEGRAM_CHECK(it != batches_.end(),
                 "ShardedBatchMapper: unknown or already-collected ticket");
    std::unique_ptr<Batch> batch = std::move(it->second);
    batches_.erase(it);
    return batch;
}

void
ShardedBatchMapper::cancel(Ticket ticket) const
{
    // The batch is freed only after its job is done.
    const std::unique_ptr<Batch> batch = take(ticket);
    pool_.cancel({ticket.id});
}

std::vector<MultiMapResult>
ShardedBatchMapper::collect(Ticket ticket) const
{
    const std::unique_ptr<Batch> batch = take(ticket);
    // On a failed item this rethrows, and the batch is freed: the job
    // is done, so no worker touches it any more.
    pool_.wait({ticket.id});

    // The cross-chromosome merge, per read over ascending shard order:
    // lowest edit distance wins, ties go to the earlier chromosome.
    // Order-independent inputs + fixed merge order = deterministic
    // output.
    const size_t num_reads = batch->reads.size();
    std::vector<MultiMapResult> results(num_reads);
    uint64_t mapped = 0;
    for (size_t i = 0; i < num_reads; ++i) {
        MultiMapResult &best = results[i];
        for (size_t s = 0; s < engines_.size(); ++s) {
            MapResult &result = batch->partial[s][i];
            if (replacesResult(result, best)) {
                static_cast<MapResult &>(best) = std::move(result);
                best.chromosome = names_[s];
            }
        }
        if (best.mapped)
            ++mapped;
    }

    if (batch->stats != nullptr) {
        // Work counters are commutative sums over the grid. The
        // read-level counters count logical reads, not (read x shard)
        // passes.
        // Thread-safety: each workerStats slot was written by exactly
        // one pool worker, and the pool's completion handshake (pool
        // mutex) in wait() happens-before this merge — no atomics
        // needed.
        PipelineStats total;
        for (const auto &partial_stats : batch->workerStats)
            total += partial_stats;
        total.readsTotal = num_reads;
        total.readsMapped = mapped;
        *batch->stats += total;
    }
    return results;
}

std::vector<MultiMapResult>
ShardedBatchMapper::mapBatch(std::span<const std::string_view> reads,
                             PipelineStats *stats) const
{
    return collect(submit(reads, stats));
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

PafFormatter::PafFormatter(const PreprocessedReference &reference,
                           PafCoords coords)
    : coords_(coords)
{
    for (const auto &chromosome : reference.chromosomes()) {
        targets_[chromosome.name] = {
            coords == PafCoords::kPath ? chromosome.graph.pathLength()
                                       : chromosome.graph.totalSeqLen(),
            &chromosome.graph};
    }
}

std::optional<io::PafRecord>
PafFormatter::record(std::string_view name, uint64_t read_len,
                     const MultiMapResult &result) const
{
    if (!result.mapped)
        return std::nullopt;
    const Target &target = targets_.at(result.chromosome);
    io::PafRecord record = io::makePafRecord(
        std::string(name), read_len,
        result.reverseComplemented ? '-' : '+', result.chromosome,
        target.len, result.linearStart, result.cigar);
    if (coords_ == PafCoords::kPath) {
        const uint64_t ref_span = result.cigar.refLength();
        record.targetStart = target.graph->pathProject(result.linearStart);
        record.targetEnd =
            ref_span == 0
                ? record.targetStart
                : std::clamp(target.graph->pathProject(
                                 result.linearStart + ref_span - 1) +
                                 1,
                             record.targetStart, target.len);
    }
    return record;
}

bool
PafFormatter::format(std::string &out, std::string_view name,
                     uint64_t read_len, const MultiMapResult &result) const
{
    const auto paf = record(name, read_len, result);
    if (paf)
        io::formatPaf(out, *paf);
    return paf.has_value();
}

} // namespace segram::core
