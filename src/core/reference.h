/**
 * @file
 * PreprocessedReference: the product of SeGraM's one-time
 * pre-processing (Section 5) as a value type — per chromosome, the
 * topologically sorted genome graph and its minimizer index, plus the
 * chromosome name.
 *
 * The paper's execution model generates these artifacts **once** and
 * then keeps them resident and read-only for the entire mapping run.
 * This type makes that split explicit in software: build it from
 * FASTA+VCF (slow, scales with genome size), save() it as a `.segram`
 * pack, and from then on load() mmaps it back in near-instantly. The
 * mapping engines construct from it either way and cannot tell whether
 * the tables are owned heap vectors or spans into a mapped pack.
 */

#ifndef SEGRAM_SRC_CORE_REFERENCE_H
#define SEGRAM_SRC_CORE_REFERENCE_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/genome_graph.h"
#include "src/graph/gfa_import.h"
#include "src/index/minimizer_index.h"
#include "src/io/fasta.h"
#include "src/io/pack.h"
#include "src/io/vcf.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace segram::core
{

/** One pre-processed chromosome. */
struct PreprocessedChromosome
{
    std::string name;
    graph::GenomeGraph graph;
    index::MinimizerIndex index;
};

/** Per-chromosome construction report (for CLI logging). */
struct ChromosomeBuildInfo
{
    std::string name;
    uint64_t referenceBases = 0;
    uint64_t variantsApplied = 0;
    uint64_t variantsDropped = 0;

    bool operator==(const ChromosomeBuildInfo &) const = default;
};

/** What one reference build did and where its time went. */
struct BuildReport
{
    /** One row per chromosome, in reference order. */
    std::vector<ChromosomeBuildInfo> chromosomes;
    /** Workers of the build's pool. */
    int workers = 0;
    /** The index stage, summed over chromosomes (they are indexed one
     *  after another, each on the whole pool). */
    index::IndexBuildTimes index;
};

/**
 * The pre-processed reference the mapping engines run against. Movable,
 * not copyable. When loaded from a pack, the mapped file is owned here
 * and kept alive for as long as any table span can be reached.
 */
class PreprocessedReference
{
  public:
    PreprocessedReference() = default;

    /** Wraps already-built chromosomes (the simulators' path). */
    explicit PreprocessedReference(
        std::vector<PreprocessedChromosome> chromosomes);

    /**
     * Full pre-processing from files: reads the FASTA and VCF, then
     * builds as buildFromRecords does.
     *
     * @param fasta_path   Reference FASTA.
     * @param vcf_path     Variants VCF.
     * @param index_config Index parameters (bucketBits, sketch, ...).
     * @param[out] report  Optional build report.
     * @param threads      Build workers; 0 = ThreadPool::defaultThreads().
     * @throws InputError on unreadable/invalid inputs.
     */
    static PreprocessedReference
    buildFromFiles(const std::string &fasta_path,
                   const std::string &vcf_path,
                   const index::IndexConfig &index_config = {},
                   BuildReport *report = nullptr, int threads = 0);

    /**
     * Full pre-processing from parsed inputs: one topologically sorted
     * graph and one minimizer index per FASTA record (the paper builds
     * "one graph for each chromosome").
     *
     * The build runs in two stages on one pool of @p threads workers.
     * First every chromosome's variants are canonicalized (the VCF is
     * grouped by CHROM once) and its graph built, one chromosome per
     * worker, longest first. Then the chromosomes are indexed one after
     * another, each with the whole pool (MinimizerIndex::build). Each
     * chromosome lands in its own slot, so the reference, the
     * @p report rows and a saved pack are identical at every thread
     * count. When chromosomes fail, the one with the lowest index is
     * reported, as an InputError prefixed with "chromosome '<name>': "
     * — again the same at every thread count — and @p report is left
     * untouched.
     *
     * @param records      Reference FASTA records, in output order.
     * @param vcf          Variants of every chromosome.
     * @param index_config Index parameters (bucketBits, sketch, ...).
     * @param[out] report  Optional build report.
     * @param threads      Build workers; 0 = ThreadPool::defaultThreads().
     * @throws InputError on invalid inputs.
     */
    static PreprocessedReference
    buildFromRecords(const std::vector<io::FastaRecord> &records,
                     const std::vector<io::VcfRecord> &vcf,
                     const index::IndexConfig &index_config = {},
                     BuildReport *report = nullptr, int threads = 0);

    /**
     * Full pre-processing from an imported GFA graph: reads the GFA,
     * splits it into per-chromosome connected components, canonically
     * topologically sorts each (graph::importGfa), and indexes them as
     * buildFromGraphs does — the exact counterpart of buildFromFiles
     * for externally constructed pangenome graphs. A GFA exported by
     * `segram construct` rebuilds the same reference (same graphs,
     * names and indexes) the FASTA+VCF route produces.
     *
     * @param gfa_path     Graph in GFA v1 (S/L and optional P/W lines).
     * @param index_config Index parameters (bucketBits, sketch, ...).
     * @param[out] report  Optional build report (referenceBases =
     *                     reference-path length; the variant counters
     *                     stay zero — a GFA carries its variants
     *                     pre-applied).
     * @param threads      Index workers; 0 = ThreadPool::defaultThreads().
     * @throws InputError on unreadable/malformed/cyclic inputs.
     */
    static PreprocessedReference
    buildFromGfa(const std::string &gfa_path,
                 const index::IndexConfig &index_config = {},
                 BuildReport *report = nullptr, int threads = 0);

    /**
     * Indexes already-built chromosome graphs (graph::importGfa's
     * output) with the same pool, index stage, determinism and error
     * rules as buildFromRecords.
     */
    static PreprocessedReference
    buildFromGraphs(std::vector<graph::ImportedChromosome> chromosomes,
                    const index::IndexConfig &index_config = {},
                    BuildReport *report = nullptr, int threads = 0);

    /**
     * Loads a `.segram` pack by memory-mapping it; every table borrows
     * from the mapping (no rebuild, no copy).
     *
     * @throws InputError when validation fails (see io::PackFile).
     */
    static PreprocessedReference
    load(const std::string &pack_path,
         const io::PackLoadOptions &options = {});

    /** Serializes to a `.segram` pack (works for built *and* loaded). */
    void save(const std::string &pack_path) const;

    size_t numChromosomes() const { return chromosomes_.size(); }
    const std::string &name(size_t i) const { return chromosomes_[i].name; }
    const graph::GenomeGraph &
    graph(size_t i) const
    {
        return chromosomes_[i].graph;
    }
    const index::MinimizerIndex &
    index(size_t i) const
    {
        return chromosomes_[i].index;
    }

    const std::vector<PreprocessedChromosome> &
    chromosomes() const
    {
        return chromosomes_;
    }

    /** @return True when the tables are backed by a mapped pack. */
    bool fromPack() const { return pack_ != nullptr; }

    /** Where load() spent its time; zeros when not from a pack. */
    io::PackOpenTimes
    packOpenTimes() const
    {
        return pack_ != nullptr ? pack_->openTimes() : io::PackOpenTimes{};
    }

    /**
     * On-disk/resident footprint of chromosome @p i's shard: the pack
     * byte extent when loaded from a pack, the table byte totals
     * (graph + index levels) when built in memory — either way, the
     * weight ShardResidency charges against a memory budget.
     */
    uint64_t shardBytes(size_t i) const;

    /**
     * Forwards a residency hint to the mapped pack (see
     * io::PackFile::adviseShard); no-op for in-memory references,
     * whose tables cannot be dropped.
     */
    void adviseShard(size_t i, bool resident) const;

    PreprocessedReference(PreprocessedReference &&) = default;
    PreprocessedReference &operator=(PreprocessedReference &&) = default;
    PreprocessedReference(const PreprocessedReference &) = delete;
    PreprocessedReference &operator=(const PreprocessedReference &) = delete;

  private:
    std::vector<PreprocessedChromosome> chromosomes_;
    /** Keeps mapped tables alive; null when chromosomes own their data. */
    std::unique_ptr<io::PackFile> pack_;
};

/**
 * LRU residency control over the shards of a pack-backed reference —
 * the `segram map --mem-budget` mechanism. Workers acquire() a shard
 * before touching its tables; the acquisition pins it resident
 * (madvise(MADV_WILLNEED)) and, when the resident total exceeds the
 * budget, evicts least-recently-used *unpinned* shards
 * (madvise(MADV_DONTNEED) — their clean read-only pages refault from
 * the pack file on the next access, so eviction is always safe, never
 * wrong). A working set of pinned shards larger than the budget is
 * allowed to exceed it — correctness over the cap — and reported in
 * peakResidentBytes.
 *
 * Thread-safe; one instance is shared by all workers of a batch run.
 */
class ShardResidency
{
  public:
    struct Stats
    {
        uint64_t acquisitions = 0; ///< total acquire() calls
        uint64_t faults = 0;       ///< acquires of a non-resident shard
        uint64_t evictions = 0;    ///< shards advised out
        uint64_t peakResidentBytes = 0;
    };

    /** Pin on one shard; releases (unpins) on destruction. */
    class Lease
    {
      public:
        Lease() = default;
        Lease(ShardResidency *owner, size_t shard)
            : owner_(owner), shard_(shard)
        {
        }
        Lease(Lease &&other) noexcept
            : owner_(std::exchange(other.owner_, nullptr)),
              shard_(other.shard_)
        {
        }
        Lease &
        operator=(Lease &&other) noexcept
        {
            if (this != &other) {
                reset();
                owner_ = std::exchange(other.owner_, nullptr);
                shard_ = other.shard_;
            }
            return *this;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease() { reset(); }

      private:
        void
        reset()
        {
            if (owner_ != nullptr)
                std::exchange(owner_, nullptr)->release(shard_);
        }

        ShardResidency *owner_ = nullptr;
        size_t shard_ = 0;
    };

    /**
     * @param reference    The (pack-backed) reference to control.
     *                     Must outlive this object.
     * @param budget_bytes Target resident ceiling across shards; 0
     *                     disables eviction (everything stays warm).
     */
    ShardResidency(const PreprocessedReference &reference,
                   uint64_t budget_bytes);

    /** Pins shard @p shard resident until the lease dies. */
    Lease acquire(size_t shard);

    Stats stats() const;

    uint64_t budgetBytes() const { return budget_; }

  private:
    friend class Lease;

    struct Shard
    {
        uint64_t bytes = 0;
        uint64_t lastUse = 0;
        int pins = 0;
        bool resident = false;
    };

    void release(size_t shard);
    /** Evicts LRU unpinned shards while over budget. */
    void evictOverBudget() SEGRAM_REQUIRES(mutex_);

    const PreprocessedReference &reference_;
    const uint64_t budget_;
    mutable util::Mutex mutex_;
    std::vector<Shard> shards_ SEGRAM_GUARDED_BY(mutex_);
    uint64_t clock_ SEGRAM_GUARDED_BY(mutex_) = 0;
    uint64_t residentBytes_ SEGRAM_GUARDED_BY(mutex_) = 0;
    Stats stats_ SEGRAM_GUARDED_BY(mutex_);
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_REFERENCE_H
