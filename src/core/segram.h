/**
 * @file
 * SegramMapper: the end-to-end SeGraM pipeline (Fig. 4) as a library.
 *
 * One mapper binds a genome graph and its minimizer index; mapRead()
 * then runs the full per-read flow the accelerator implements:
 * MinSeed (minimizers -> frequency filter -> seeds -> candidate
 * subgraphs) followed by BitAlign on every candidate region (exact for
 * reads that fit one window, divide-and-conquer otherwise), returning
 * the best alignment. Sequence-to-sequence mapping is the same code
 * path on a chain graph, exactly as the paper's universality argument
 * prescribes.
 */

#ifndef SEGRAM_SRC_CORE_SEGRAM_H
#define SEGRAM_SRC_CORE_SEGRAM_H

#include <cstdint>
#include <span>
#include <string_view>

#include "src/align/bitalign.h"
#include "src/core/engine.h"
#include "src/core/workspace.h"
#include "src/graph/genome_graph.h"
#include "src/graph/linearize.h"
#include "src/index/minimizer_index.h"
#include "src/seed/chaining.h"
#include "src/seed/minseed.h"
#include "src/util/cigar.h"

namespace segram::core
{

class PreprocessedReference; // src/core/reference.h

/**
 * Pipeline configuration. Its defaults are the hardware-faithful
 * pipeline the paper-figure benches measure; product() is the pipeline
 * `segram map` and `segram serve` run.
 */
struct SegramConfig
{
    /**
     * The product pipeline at expected per-base error rate
     * @p error_rate: the seeding error rate, a per-window edit cap of
     * three times the window's expected edits (never below 32), early
     * exit at 1.5 and the reverse-complement retry.
     */
    static SegramConfig
    product(double error_rate = seed::MinSeedConfig().errorRate);

    seed::MinSeedConfig minseed;       ///< seeding parameters
    align::BitAlignConfig bitalign;    ///< alignment parameters
    /**
     * HopBits height: hops longer than this are dropped when candidate
     * subgraphs are linearized (Fig. 12/13). kUnlimitedHops gives the
     * software-exact mode.
     */
    int hopLimit = graph::kDefaultHopLimit;
    /**
     * Cap on candidate regions aligned per read; 0 aligns all (the
     * hardware behaviour — MinSeed performs no filtering).
     */
    uint32_t maxRegions = 0;
    /**
     * Early exit: stop aligning further candidates once an alignment
     * with at most earlyExitFraction * errorRate * readLen edits is
     * found. 0 disables (align everything, hardware-faithful).
     */
    double earlyExitFraction = 0.0;

    /**
     * Also try the reverse complement of each read and keep the better
     * alignment. Off by default (the simulators emit forward-strand
     * reads); real sequencing data needs it.
     */
    bool tryReverseComplement = false;

    /**
     * Enable the optional chaining/clustering step between seeding and
     * alignment (step 2 of Fig. 2). The paper's MinSeed omits it
     * (Section 11.4) and notes that adding one "would increase SeGraM's
     * performance and efficiency, a study we leave to future work" —
     * this implements that study: co-diagonal seeds are grouped and
     * only the best chain.maxChains chains are aligned.
     */
    bool enableChainFilter = false;

    /** Chaining parameters (used when enableChainFilter is set). */
    seed::ChainConfig chain{.maxChains = 4};
};

/** The end-to-end mapper. */
class SegramMapper : public MappingEngine
{
  public:
    /**
     * @param graph  Topologically sorted genome graph (pre-processing
     *               step 1, already in "memory").
     * @param index  Minimizer index of @p graph (pre-processing step 2).
     * @param config Pipeline parameters.
     */
    SegramMapper(const graph::GenomeGraph &graph,
                 const index::MinimizerIndex &index,
                 const SegramConfig &config = {});

    /**
     * Binds chromosome @p chromosome of a pre-processed reference
     * (built fresh or mmap-loaded from a pack — the mapper cannot tell
     * the difference). @p reference must outlive the mapper.
     */
    SegramMapper(const PreprocessedReference &reference, size_t chromosome,
                 const SegramConfig &config = {});

    /**
     * Maps one read end to end. Safe to call concurrently: the graph
     * and index are shared read-only and all per-read state is local.
     * This convenience overload allocates a fresh workspace per call;
     * hot loops should hold a MapWorkspace and use the overload below.
     *
     * @param read       Query read (ACGT, non-empty).
     * @param[out] stats Optional counter accumulator.
     */
    MapResult mapRead(std::string_view read,
                      PipelineStats *stats = nullptr) const;

    /**
     * Workspace-borrowing variant: every scratch buffer of the
     * pipeline (candidate regions, RC buffer, linearization, bitvector
     * slab, CIGAR scratch) lives in @p workspace, so a warm workspace
     * makes the whole per-read flow allocation-free. Results are
     * bit-identical to the convenience overload. @p workspace must not
     * be shared between concurrent calls. This sequential per-read
     * flow is the oracle the lane-batched mapMany is tested against.
     */
    MapResult mapRead(std::string_view read, PipelineStats *stats,
                      MapWorkspace &workspace) const;

    /**
     * MappingEngine interface: the lane-batched group mapper. Maps
     * reads[i] -> results[i] (spans must be equal-sized) with the
     * region-stream scheduler. Up to bitops::kBatchLanes
     * candidate-region window streams are in flight at once —
     * normally from different strand tasks (read x orientation,
     * claimed in read order), and, when nothing else can fill a lane,
     * speculatively from later regions of a task whose early-exit
     * check is still pending. Each round, every pending
     * window request joins one lane-batched kernel launch (mixed
     * widths pad to the widest); a lone draining lane runs the same
     * kernel at one lane. Region outcomes commit strictly in region
     * order and speculative work past an early exit is discarded.
     * Planning, per-region config, commits and the strand merge are
     * the private steps mapRead calls too, so every per-strand decision
     * and every committed counter is bit-identical to a mapRead loop —
     * only the window computations are co-scheduled.
     */
    void mapMany(std::span<const std::string_view> reads,
                 std::span<MapResult> results, PipelineStats *stats,
                 MapWorkspace &workspace) const override;

    /** MappingEngine interface: mapRead. */
    MapResult
    mapOne(std::string_view read, PipelineStats *stats,
           MapWorkspace &workspace) const override
    {
        return mapRead(read, stats, workspace);
    }
    std::string_view engineName() const override { return "segram"; }

    const SegramConfig &config() const { return config_; }
    const graph::GenomeGraph &graph() const { return graph_; }

  private:
    // The candidate-region policy. mapRead drives these steps in a
    // sequential loop, one alignWindowed per region; mapMany drives the
    // same steps from its lane scheduler. Each rule lives here once.

    /**
     * Plans strand @p strand (0 = forward, 1 = reverse complement) of
     * @p read into @p task: seeds it (timed as the seeding stage),
     * applies the chain filter and the maxRegions cut, sets the
     * early-exit bound and resets the strand best and commit cursor.
     */
    void planStrand(std::string_view read, int strand, StrandTask &task,
                    MapWorkspace &workspace, PipelineStats &local,
                    bool timed) const;

    /**
     * Linearizes @p region into @p linearization (timed as the
     * linearization stage). @return The region's BitAlign config, its
     * first free-start window widened to cover the Fig. 9 span.
     */
    align::BitAlignConfig
    prepareRegion(const seed::CandidateRegion &region,
                  graph::LinearizedGraph &linearization,
                  PipelineStats &local, bool timed) const;

    /**
     * Folds the outcome of region task.committed into the strand best
     * (callers commit strictly in region order): counts the region and
     * a found alignment, and takes it only when its edit distance is
     * strictly lower, so ties keep the earlier region.
     * @return True when early exit fires.
     */
    static bool commitRegion(StrandTask &task,
                             const align::GraphAlignment &alignment,
                             PipelineStats &local);

    /**
     * Delivers a read's result into @p out from its strand results
     * (@p reverse is null without the reverse-complement retry). The
     * reverse strand wins only when strictly lower (replacesResult);
     * the winner reports the regions tried on both strands. Counts the
     * read once in readsTotal and, when mapped, in readsMapped.
     */
    static void mergeStrands(MapResult &forward, MapResult *reverse,
                             MapResult &out, PipelineStats &local);

    /**
     * Applies the optional chaining filter to workspace.regions.
     * @return The regions to align: workspace.regions itself when the
     *         filter is off, workspace.filtered otherwise.
     */
    const std::vector<seed::CandidateRegion> &
    filterRegions(MapWorkspace &workspace, size_t read_len) const;

    const graph::GenomeGraph &graph_;
    SegramConfig config_;
    seed::MinSeed minseed_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_SEGRAM_H
