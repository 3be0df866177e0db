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

/** Pipeline configuration. */
struct SegramConfig
{
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
     * only the best maxChains chains are aligned.
     */
    bool enableChainFilter = false;

    /**
     * Chains kept when the chain filter is enabled. Applies when
     * chain.maxChains is 0 (its default); an explicit chain.maxChains
     * takes precedence.
     */
    int maxChains = 4;

    /** Chaining parameters (used when enableChainFilter is set). */
    seed::ChainConfig chain;
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
     * widths pad to the widest); a lone draining lane takes the
     * per-window path. Region outcomes commit strictly in region
     * order and speculative work past an early exit is discarded, so
     * every per-strand decision (region order, best-update
     * tie-breaking, early exit, strand merge) and every committed
     * counter is bit-identical to a mapRead loop — only the window
     * computations are co-scheduled.
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
    /** Maps one orientation of a read (no reverse-complement retry). */
    MapResult mapOneStrand(std::string_view read, PipelineStats *stats,
                           MapWorkspace &workspace) const;

    /**
     * Applies the optional chaining filter to workspace.regions.
     * @return The regions to align: workspace.regions itself when the
     *         filter is off, workspace.filtered otherwise.
     */
    const std::vector<seed::CandidateRegion> &
    filterRegions(MapWorkspace &workspace, size_t read_len) const;

    const graph::GenomeGraph &graph_;
    const index::MinimizerIndex &index_;
    SegramConfig config_;
    seed::MinSeed minseed_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_SEGRAM_H
