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
 * Runs @p build_one(i) for every chromosome i < @p sizes.size() on a
 * pool of min(@p threads, n) workers (0 = ThreadPool::defaultThreads()),
 * longest first: longest-processing-time-first scheduling, so the
 * largest chromosomes never start last and stretch the makespan.
 * build_one(i) must write only slot i of its output; the reports it
 * returns are appended to @p build_info (if set) in chromosome order.
 *
 * A failure is kept per chromosome, and the lowest-index one is
 * rethrown once every worker is done, so the error does not depend on
 * timing. Chromosomes after a recorded failure are skipped: they
 * cannot change which error is reported.
 */
void
buildEachChromosome(
    const std::vector<uint64_t> &sizes,
    const std::vector<std::string> &names, int threads,
    std::vector<ChromosomeBuildInfo> *build_info,
    const std::function<ChromosomeBuildInfo(size_t)> &build_one)
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
    const int requested =
        threads > 0 ? threads : util::ThreadPool::defaultThreads();
    util::ThreadPool pool(
        static_cast<int>(std::min(static_cast<size_t>(requested), n)));
    pool.parallelFor(n, 1, [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
            const size_t i = order[k];
            if (i > lowest_failure.load())
                continue;
            try {
                info[i] = build_one(i);
            } catch (...) {
                errors[i] = std::current_exception();
                size_t seen = lowest_failure.load();
                while (i < seen &&
                       !lowest_failure.compare_exchange_weak(seen, i)) {
                }
            }
        }
    });

    const size_t failed = lowest_failure.load();
    if (failed < n) {
        try {
            std::rethrow_exception(errors[failed]);
        } catch (const InputError &error) {
            throw InputError("chromosome '" + names[failed] +
                             "': " + error.what());
        }
    }
    if (build_info != nullptr)
        build_info->insert(build_info->end(), info.begin(), info.end());
}

} // namespace

PreprocessedReference
PreprocessedReference::buildFromFiles(
    const std::string &fasta_path, const std::string &vcf_path,
    const index::IndexConfig &index_config,
    std::vector<ChromosomeBuildInfo> *build_info, int threads)
{
    return buildFromRecords(io::readFastaFile(fasta_path),
                            io::readVcfFile(vcf_path), index_config,
                            build_info, threads);
}

PreprocessedReference
PreprocessedReference::buildFromRecords(
    const std::vector<io::FastaRecord> &records,
    const std::vector<io::VcfRecord> &vcf,
    const index::IndexConfig &index_config,
    std::vector<ChromosomeBuildInfo> *build_info, int threads)
{
    SEGRAM_CHECK(!records.empty(), "reference FASTA has no records");
    std::vector<uint64_t> sizes;
    std::vector<std::string> names;
    for (const auto &record : records) {
        sizes.push_back(record.seq.size());
        names.push_back(record.name);
    }

    PreprocessedReference out;
    out.chromosomes_.resize(records.size());
    buildEachChromosome(sizes, names, threads, build_info, [&](size_t i) {
        const auto &record = records[i];
        uint64_t dropped = 0;
        const auto variants = graph::canonicalizeSet(
            vcf, record.name, record.seq.size(), &dropped);
        auto &chromosome = out.chromosomes_[i];
        chromosome.name = record.name;
        chromosome.graph = graph::buildGraph(record.seq, variants);
        chromosome.index =
            index::MinimizerIndex::build(chromosome.graph, index_config);
        return ChromosomeBuildInfo{record.name, record.seq.size(),
                                   variants.size(), dropped};
    });
    return out;
}

PreprocessedReference
PreprocessedReference::buildFromGfa(
    const std::string &gfa_path, const index::IndexConfig &index_config,
    std::vector<ChromosomeBuildInfo> *build_info, int threads)
{
    return buildFromGraphs(graph::importGfa(io::readGfaFile(gfa_path)),
                           index_config, build_info, threads);
}

PreprocessedReference
PreprocessedReference::buildFromGraphs(
    std::vector<graph::ImportedChromosome> chromosomes,
    const index::IndexConfig &index_config,
    std::vector<ChromosomeBuildInfo> *build_info, int threads)
{
    std::vector<uint64_t> sizes;
    std::vector<std::string> names;
    for (const auto &chromosome : chromosomes) {
        sizes.push_back(chromosome.graph.totalSeqLen());
        names.push_back(chromosome.name);
    }

    PreprocessedReference out;
    out.chromosomes_.resize(chromosomes.size());
    buildEachChromosome(sizes, names, threads, build_info, [&](size_t i) {
        auto &entry = out.chromosomes_[i];
        entry.name = std::move(chromosomes[i].name);
        entry.graph = std::move(chromosomes[i].graph);
        entry.index =
            index::MinimizerIndex::build(entry.graph, index_config);
        return ChromosomeBuildInfo{entry.name, entry.graph.pathLength(),
                                   0, 0};
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
