#include "src/core/reference.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <numeric>
#include <utility>

#include "src/graph/gfa_import.h"
#include "src/graph/graph_builder.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/io/gfa.h"
#include "src/io/vcf.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace segram::core
{

PreprocessedReference::PreprocessedReference(
    std::vector<PreprocessedChromosome> chromosomes)
    : chromosomes_(std::move(chromosomes))
{
}

namespace
{

/**
 * Builds every chromosome on one pool of @p threads workers
 * (0 = ThreadPool::defaultThreads()), in two stages:
 *  1. @p make_graph(i) for every chromosome i < @p sizes.size(), one
 *     chromosome per worker, longest first: longest-processing-time-
 *     first scheduling, so the largest never starts last and
 *     stretches the makespan. make_graph(i) must fill only
 *     @p chromosomes[i]'s name (before anything that can throw) and
 *     graph, and returns its report row.
 *  2. each chromosome's index, one chromosome after another in
 *     reference order, every one with the whole pool.
 * The calling thread drives both stages, so no worker ever waits on
 * the pool.
 *
 * A failure is kept per chromosome, and the lowest-index one is
 * rethrown once the stages are done, so the error does not depend on
 * timing: chromosomes after a recorded stage-1 failure are skipped,
 * stage 2 indexes only the chromosomes below the lowest stage-1
 * failure and stops at its own first one.
 */
void
buildEachChromosome(
    const std::vector<uint64_t> &sizes, const index::IndexConfig &config,
    int threads, std::vector<PreprocessedChromosome> &chromosomes,
    BuildReport *report,
    const std::function<ChromosomeBuildInfo(size_t)> &make_graph)
{
    const size_t n = sizes.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&sizes](size_t a, size_t b) {
                         return sizes[a] > sizes[b];
                     });

    std::vector<ChromosomeBuildInfo> info(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> lowest_failure{n};
    util::ThreadPool pool(threads > 0 ? threads
                                      : util::ThreadPool::defaultThreads());
    pool.parallelFor(n, 1, [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
            const size_t i = order[k];
            if (i > lowest_failure.load())
                continue;
            try {
                info[i] = make_graph(i);
            } catch (...) {
                errors[i] = std::current_exception();
                size_t seen = lowest_failure.load();
                while (i < seen &&
                       !lowest_failure.compare_exchange_weak(seen, i)) {
                }
            }
        }
    });

    size_t failed = lowest_failure.load();
    index::IndexBuildTimes index_times;
    for (size_t i = 0; i < failed; ++i) {
        index::IndexBuildTimes times;
        try {
            chromosomes[i].index = index::MinimizerIndex::build(
                chromosomes[i].graph, config, &pool, &times);
        } catch (...) {
            errors[i] = std::current_exception();
            failed = i;
            break;
        }
        index_times += times;
    }

    if (failed < n) {
        try {
            std::rethrow_exception(errors[failed]);
        } catch (const InputError &error) {
            throw InputError("chromosome '" + chromosomes[failed].name +
                             "': " + error.what());
        }
    }
    if (report != nullptr) {
        report->chromosomes = std::move(info);
        report->workers = pool.size();
        report->index = index_times;
    }
}

} // namespace

PreprocessedReference
PreprocessedReference::buildFromFiles(
    const std::string &fasta_path, const std::string &vcf_path,
    const index::IndexConfig &index_config, BuildReport *report,
    int threads)
{
    return buildFromRecords(io::readFastaFile(fasta_path),
                            io::readVcfFile(vcf_path), index_config,
                            report, threads);
}

PreprocessedReference
PreprocessedReference::buildFromRecords(
    const std::vector<io::FastaRecord> &records,
    const std::vector<io::VcfRecord> &vcf,
    const index::IndexConfig &index_config, BuildReport *report,
    int threads)
{
    SEGRAM_CHECK(!records.empty(), "reference FASTA has no records");
    std::vector<uint64_t> sizes;
    for (const auto &record : records)
        sizes.push_back(record.seq.size());
    const graph::VcfByChrom vcf_by_chrom(vcf);

    PreprocessedReference out;
    out.chromosomes_.resize(records.size());
    buildEachChromosome(
        sizes, index_config, threads, out.chromosomes_, report,
        [&](size_t i) {
            const auto &record = records[i];
            auto &chromosome = out.chromosomes_[i];
            chromosome.name = record.name;
            uint64_t dropped = 0;
            const auto variants = graph::canonicalizeSet(
                vcf_by_chrom.records(record.name),
                record.seq.size(), &dropped);
            chromosome.graph = graph::buildGraph(record.seq, variants);
            return ChromosomeBuildInfo{record.name, record.seq.size(),
                                       variants.size(), dropped};
        });
    return out;
}

PreprocessedReference
PreprocessedReference::buildFromGfa(const std::string &gfa_path,
                                    const index::IndexConfig &index_config,
                                    BuildReport *report, int threads)
{
    return buildFromGraphs(graph::importGfa(io::readGfaFile(gfa_path)),
                           index_config, report, threads);
}

PreprocessedReference
PreprocessedReference::buildFromGraphs(
    std::vector<graph::ImportedChromosome> chromosomes,
    const index::IndexConfig &index_config, BuildReport *report,
    int threads)
{
    std::vector<uint64_t> sizes;
    for (const auto &chromosome : chromosomes)
        sizes.push_back(chromosome.graph.totalSeqLen());

    PreprocessedReference out;
    out.chromosomes_.resize(chromosomes.size());
    buildEachChromosome(
        sizes, index_config, threads, out.chromosomes_, report,
        [&](size_t i) {
            auto &entry = out.chromosomes_[i];
            entry.name = std::move(chromosomes[i].name);
            entry.graph = std::move(chromosomes[i].graph);
            return ChromosomeBuildInfo{entry.name,
                                       entry.graph.pathLength(), 0, 0};
        });
    return out;
}

PreprocessedReference
PreprocessedReference::load(const std::string &pack_path,
                            const io::PackLoadOptions &options)
{
    PreprocessedReference out;
    auto pack = std::make_unique<io::PackFile>(
        io::PackFile::open(pack_path, options));
    out.chromosomes_.reserve(pack->numChromosomes());
    for (size_t i = 0; i < pack->numChromosomes(); ++i) {
        // Cheap copies: the graphs/indexes borrow their tables from the
        // mapping (kept alive by pack_ below), so copying them copies
        // spans and scalars, never table contents.
        out.chromosomes_.push_back(
            {pack->name(i), pack->graph(i), pack->index(i)});
    }
    out.pack_ = std::move(pack);
    return out;
}

void
PreprocessedReference::save(const std::string &pack_path) const
{
    std::vector<io::PackWriteEntry> entries;
    entries.reserve(chromosomes_.size());
    for (const auto &chromosome : chromosomes_) {
        entries.push_back(
            {chromosome.name, &chromosome.graph, &chromosome.index});
    }
    io::writePack(pack_path, entries);
}

uint64_t
PreprocessedReference::shardBytes(size_t i) const
{
    if (pack_ != nullptr)
        return pack_->shard(i).byteBytes;
    const auto &chromosome = chromosomes_[i];
    const auto &stats = chromosome.index.stats();
    // In-memory estimate mirroring what the shard would weigh in a
    // pack: 2-bit character words + node/edge records + the three
    // index levels.
    const uint64_t graph_bytes =
        chromosome.graph.numNodes() * sizeof(graph::NodeRecord) +
        chromosome.graph.numEdges() * sizeof(graph::NodeId) +
        (chromosome.graph.totalSeqLen() + 31) / 32 * sizeof(uint64_t);
    return graph_bytes + stats.totalBytes();
}

void
PreprocessedReference::adviseShard(size_t i, bool resident) const
{
    if (pack_ != nullptr)
        pack_->adviseShard(i, resident);
}

ShardResidency::ShardResidency(const PreprocessedReference &reference,
                               uint64_t budget_bytes)
    : reference_(reference), budget_(budget_bytes),
      shards_(reference.numChromosomes())
{
    for (size_t i = 0; i < shards_.size(); ++i)
        shards_[i].bytes = reference.shardBytes(i);
}

ShardResidency::Lease
ShardResidency::acquire(size_t shard)
{
    util::MutexLock lock(mutex_);
    Shard &entry = shards_[shard];
    ++entry.pins;
    entry.lastUse = ++clock_;
    ++stats_.acquisitions;
    if (!entry.resident) {
        ++stats_.faults;
        entry.resident = true;
        residentBytes_ += entry.bytes;
        reference_.adviseShard(shard, true);
        evictOverBudget();
    }
    stats_.peakResidentBytes =
        std::max(stats_.peakResidentBytes, residentBytes_);
    return Lease(this, shard);
}

void
ShardResidency::release(size_t shard)
{
    util::MutexLock lock(mutex_);
    --shards_[shard].pins;
    evictOverBudget();
}

void
ShardResidency::evictOverBudget()
{
    if (budget_ == 0)
        return;
    while (residentBytes_ > budget_) {
        size_t victim = shards_.size();
        uint64_t oldest = UINT64_MAX;
        for (size_t i = 0; i < shards_.size(); ++i) {
            const Shard &entry = shards_[i];
            if (entry.resident && entry.pins == 0 &&
                entry.lastUse < oldest) {
                oldest = entry.lastUse;
                victim = i;
            }
        }
        if (victim == shards_.size())
            return; // every resident shard is pinned: allowed overage
        Shard &entry = shards_[victim];
        entry.resident = false;
        residentBytes_ -= entry.bytes;
        ++stats_.evictions;
        reference_.adviseShard(victim, false);
    }
}

ShardResidency::Stats
ShardResidency::stats() const
{
    util::MutexLock lock(mutex_);
    return stats_;
}

} // namespace segram::core
