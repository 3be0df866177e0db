#include "src/core/segram.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/core/reference.h"
#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::core
{

namespace
{

/** Seconds since @p start (stage-timing probe; reporting only). */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

SegramMapper::SegramMapper(const graph::GenomeGraph &graph,
                           const index::MinimizerIndex &index,
                           const SegramConfig &config)
    : graph_(graph), index_(index), config_(config),
      minseed_(graph, index, config.minseed)
{
    // Once per chromosome; linearizeRange checks only the edges each
    // region uses.
    // segram-lint: allow(hot-path-graph-scan)
    SEGRAM_CHECK(graph.isTopologicallySorted(),
                 "SegramMapper requires a topologically sorted graph");
    SEGRAM_CHECK(config.earlyExitFraction >= 0.0,
                 "earlyExitFraction must be >= 0");
    SEGRAM_CHECK(config.maxChains >= 1, "maxChains must be >= 1");
}

SegramMapper::SegramMapper(const PreprocessedReference &reference,
                           size_t chromosome, const SegramConfig &config)
    : SegramMapper(reference.graph(chromosome),
                   reference.index(chromosome), config)
{
}

const std::vector<seed::CandidateRegion> &
SegramMapper::filterRegions(MapWorkspace &workspace,
                            size_t read_len) const
{
    const std::vector<seed::CandidateRegion> &regions = workspace.regions;
    if (!config_.enableChainFilter || regions.empty())
        return regions;

    // Group candidate seeds by diagonal (step 2 of Fig. 2) and keep the
    // regions of the best chains only.
    std::vector<seed::SeedHit> &hits = workspace.chainHits;
    hits.clear();
    hits.reserve(regions.size());
    for (const auto &region : regions) {
        const uint64_t seed_pos =
            graph_.node(region.seed.node).linearOffset +
            region.seed.offset;
        hits.push_back({seed_pos, region.minimizerPos});
    }
    // The scratch overload sorts into workspace-owned buffers and
    // returns chains that live in the workspace pool, so a warm
    // chain-filter pass is allocation-free like the rest of the
    // pipeline.
    seed::ChainConfig chain_config = config_.chain;
    if (chain_config.maxChains == 0)
        chain_config.maxChains = config_.maxChains;
    const auto chains =
        seed::chainSeeds(hits, chain_config, workspace.chainScratch);

    const double extend = 1.0 + config_.minseed.errorRate;
    std::vector<seed::CandidateRegion> &filtered = workspace.filtered;
    filtered.clear();
    for (const auto &chain : chains) {
        const seed::SeedHit &first = chain.hits.front();
        const seed::SeedHit &last = chain.hits.back();
        seed::CandidateRegion region;
        const auto left = static_cast<uint64_t>(
            std::llround(first.readPos * extend));
        region.start =
            first.refPos >= left ? first.refPos - left : 0;
        region.end = std::min<uint64_t>(
            last.refPos +
                static_cast<uint64_t>(std::llround(
                    (static_cast<double>(read_len) - last.readPos) *
                    extend)),
            graph_.totalSeqLen() - 1);
        region.minimizerPos = first.readPos;
        region.seed = {graph_.nodeAtLinear(first.refPos), 0};
        filtered.push_back(region);
    }
    return filtered;
}

MapResult
SegramMapper::mapOneStrand(std::string_view read, PipelineStats *stats,
                           MapWorkspace &workspace) const
{
    PipelineStats local;
    local.readsTotal = 1;

    // Stage timing is reporting-only; skip the clock entirely when the
    // caller keeps no stats.
    const bool timed = stats != nullptr;
    using clock = std::chrono::steady_clock;

    const auto seed_start = timed ? clock::now() : clock::time_point{};
    minseed_.seedRead(read, workspace.regions, workspace.seed,
                      &local.seeding);
    const std::vector<seed::CandidateRegion> &all_regions =
        filterRegions(workspace, read.size());
    if (timed)
        local.timings.seedingSec += secondsSince(seed_start);

    size_t num_regions = all_regions.size();
    if (config_.maxRegions != 0 && num_regions > config_.maxRegions)
        num_regions = config_.maxRegions;

    const int early_exit_edits =
        config_.earlyExitFraction > 0.0
            ? static_cast<int>(std::ceil(config_.earlyExitFraction *
                                         config_.minseed.errorRate *
                                         static_cast<double>(read.size())))
            : -1;

    MapResult best;
    for (size_t r = 0; r < num_regions; ++r) {
        const seed::CandidateRegion &region = all_regions[r];
        ++best.regionsTried;
        ++local.regionsAligned;
        auto stage_start = timed ? clock::now() : clock::time_point{};
        graph::linearizeRange(graph_, region.start, region.end,
                              config_.hopLimit, workspace.linearization);
        if (timed) {
            local.timings.linearizeSec += secondsSince(stage_start);
            stage_start = clock::now();
        }
        // The alignment start is uncertain by up to 2*E*a within the
        // region (Fig. 9); widen the first free-start window to cover
        // the whole span.
        align::BitAlignConfig bitalign = config_.bitalign;
        bitalign.firstWindowExtraText +=
            static_cast<int>(std::ceil(2.0 * config_.minseed.errorRate *
                                       region.minimizerPos)) +
            32;
        align::GraphAlignment &alignment = workspace.alignment;
        align::alignWindowed(workspace.linearization, read, bitalign,
                             workspace.align, alignment);
        if (timed)
            local.timings.alignSec += secondsSince(stage_start);
        if (!alignment.found)
            continue;
        ++local.alignmentsFound;
        if (!best.mapped || alignment.editDistance < best.editDistance) {
            best.mapped = true;
            best.editDistance = alignment.editDistance;
            best.linearStart = alignment.linearStart;
            best.cigar = alignment.cigar;
        }
        if (early_exit_edits >= 0 && best.mapped &&
            best.editDistance <= early_exit_edits) {
            break;
        }
    }

    if (best.mapped)
        ++local.readsMapped;
    if (stats != nullptr)
        *stats += local;
    return best;
}

MapResult
SegramMapper::mapRead(std::string_view read, PipelineStats *stats) const
{
    MapWorkspace workspace;
    return mapRead(read, stats, workspace);
}

MapResult
SegramMapper::mapRead(std::string_view read, PipelineStats *stats,
                      MapWorkspace &workspace) const
{
    SEGRAM_CHECK(!read.empty(), "cannot map an empty read");
    MapResult forward = mapOneStrand(read, stats, workspace);
    if (!config_.tryReverseComplement)
        return forward;

    reverseComplement(read, workspace.rcBuffer);
    MapResult reverse =
        mapOneStrand(workspace.rcBuffer, stats, workspace);
    reverse.reverseComplemented = true;
    if (stats != nullptr) {
        // Both strands were one logical read.
        --stats->readsTotal;
        if (forward.mapped && reverse.mapped)
            --stats->readsMapped;
    }
    // The winner reports the work of both strands, not just its own.
    const uint32_t total_tried =
        forward.regionsTried + reverse.regionsTried;
    MapResult best;
    if (!reverse.mapped)
        best = std::move(forward);
    else if (!forward.mapped ||
             reverse.editDistance < forward.editDistance)
        best = std::move(reverse);
    else
        best = std::move(forward);
    best.regionsTried = total_tried;
    return best;
}

void
SegramMapper::mapMany(std::span<const std::string_view> reads,
                      std::span<MapResult> results, PipelineStats *stats,
                      MapWorkspace &workspace) const
{
    SEGRAM_CHECK(reads.size() == results.size(),
                 "mapMany spans must be equal-sized");
    if (reads.empty())
        return;

    PipelineStats local;
    const bool timed = stats != nullptr;
    using clock = std::chrono::steady_clock;

    const int strands = config_.tryReverseComplement ? 2 : 1;
    const size_t num_tasks = reads.size() * static_cast<size_t>(strands);
    size_t next_task = 0;

    workspace.lanes.resize(bitops::kBatchLanes);
    for (LaneSlot &lane : workspace.lanes)
        lane.task = -1;
    workspace.tasks.resize(2 * bitops::kBatchLanes);
    for (StrandTask &task : workspace.tasks) {
        task.inUse = false;
        task.finished = false;
    }
    workspace.activeTasks.clear();
    if (strands == 2) {
        workspace.pendingStrand.resize(num_tasks);
        workspace.pendingStrandDone.assign(num_tasks, 0);
    }

    // A finished strand result either is the read's result (forward
    // only) or is staged until its sibling strand arrives; the merge
    // is mapRead's winner rule verbatim.
    const auto strandDone = [&](StrandTask &task) {
        if (strands == 1) {
            results[task.readIndex] = std::move(task.best);
            if (results[task.readIndex].mapped)
                ++local.readsMapped;
            return;
        }
        const size_t base = task.readIndex * 2;
        workspace.pendingStrand[base + task.strand] = std::move(task.best);
        workspace.pendingStrandDone[base + task.strand] = 1;
        if (!workspace.pendingStrandDone[base] ||
            !workspace.pendingStrandDone[base + 1])
            return;
        MapResult &forward = workspace.pendingStrand[base];
        MapResult &reverse = workspace.pendingStrand[base + 1];
        reverse.reverseComplemented = true;
        // The winner reports the work of both strands, not just its own.
        const uint32_t total_tried =
            forward.regionsTried + reverse.regionsTried;
        MapResult &winner =
            !reverse.mapped ? forward
            : (!forward.mapped ||
               reverse.editDistance < forward.editDistance)
                ? reverse
                : forward;
        results[task.readIndex] = std::move(winner);
        results[task.readIndex].regionsTried = total_tried;
        if (results[task.readIndex].mapped)
            ++local.readsMapped;
    };

    // Retires a task: delivers its strand result, frees its pool slot
    // and aborts any still-running speculative streams of its regions
    // (work mapRead would never have done — their counters were never
    // committed, so the totals stay exactly mapRead's).
    const auto finishTask = [&](int ti) {
        StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
        task.finished = true;
        task.inFlight = 0;
        for (LaneSlot &lane : workspace.lanes)
            if (lane.task == ti)
                lane.task = -1;
        auto &active = workspace.activeTasks;
        active.erase(std::find(active.begin(), active.end(), ti));
        task.inUse = false;
        strandDone(task);
    };

    // Folds finished outcomes into the strand best strictly in region
    // order — the order, best-update rule and early-exit check of
    // mapOneStrand verbatim, so the strand result and the committed
    // counters are bit-identical to the sequential path.
    const auto runCommits = [&](int ti) {
        StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
        while (!task.finished) {
            if (task.committed == task.regions.size()) {
                finishTask(ti);
                return;
            }
            if (task.committed >= task.started ||
                task.outcomes[task.committed].state != 2)
                return;
            const align::GraphAlignment &alignment =
                task.outcomes[task.committed].alignment;
            ++task.committed;
            ++task.best.regionsTried;
            ++local.regionsAligned;
            if (!alignment.found)
                continue;
            ++local.alignmentsFound;
            if (!task.best.mapped ||
                alignment.editDistance < task.best.editDistance) {
                task.best.mapped = true;
                task.best.editDistance = alignment.editDistance;
                task.best.linearStart = alignment.linearStart;
                task.best.cigar = alignment.cigar;
            }
            if (task.earlyExitEdits >= 0 && task.best.mapped &&
                task.best.editDistance <= task.earlyExitEdits) {
                finishTask(ti);
                return;
            }
        }
    };

    // Issues the next unstarted region's window stream into @p lane.
    // @return True when the lane now holds a pending window request
    // (degenerate streams complete and commit on the spot).
    const auto startRegion = [&](int ti, LaneSlot &lane) -> bool {
        StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
        const size_t r = task.started++;
        const seed::CandidateRegion &region = task.regions[r];
        task.outcomes[r].state = 1;
        const auto stage_start = timed ? clock::now() : clock::time_point{};
        graph::linearizeRange(graph_, region.start, region.end,
                              config_.hopLimit, lane.linearization);
        if (timed)
            local.timings.linearizeSec += secondsSince(stage_start);
        // Same free-start widening as mapOneStrand (Fig. 9).
        align::BitAlignConfig bitalign = config_.bitalign;
        bitalign.firstWindowExtraText += static_cast<int>(std::ceil(
                                             2.0 *
                                             config_.minseed.errorRate *
                                             region.minimizerPos)) +
                                         32;
        lane.stream.begin(lane.linearization, task.read, bitalign,
                          &lane.alignment);
        if (!lane.stream.done()) {
            lane.task = ti;
            lane.region = r;
            ++task.inFlight;
            return true;
        }
        // Degenerate window stream finished without a request.
        task.outcomes[r].state = 2;
        task.outcomes[r].alignment = std::move(lane.alignment);
        runCommits(ti);
        return false;
    };

    // Claims strand tasks (read-major, forward before RC) into pool
    // slots: seeds the read and prepares its region list. Region-less
    // tasks finish on the spot. @return The pool index of a task with
    // startable regions, or -1 when the batch is exhausted.
    const auto activate = [&]() -> int {
        while (next_task < num_tasks) {
            const size_t t = next_task++;
            int ti = -1;
            for (size_t p = 0; p < workspace.tasks.size(); ++p)
                if (!workspace.tasks[p].inUse) {
                    ti = static_cast<int>(p);
                    break;
                }
            SEGRAM_CHECK(ti >= 0, "strand-task pool exhausted");
            StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
            task.inUse = true;
            task.finished = false;
            task.readIndex = t / static_cast<size_t>(strands);
            task.strand =
                static_cast<int>(t % static_cast<size_t>(strands));
            const std::string_view read = reads[task.readIndex];
            if (task.strand == 0) {
                SEGRAM_CHECK(!read.empty(), "cannot map an empty read");
                task.read = read;
            } else {
                reverseComplement(read, task.rc);
                task.read = task.rc;
            }

            const auto seed_start =
                timed ? clock::now() : clock::time_point{};
            minseed_.seedRead(task.read, workspace.regions,
                              workspace.seed, &local.seeding);
            const std::vector<seed::CandidateRegion> &all_regions =
                filterRegions(workspace, task.read.size());
            if (timed)
                local.timings.seedingSec += secondsSince(seed_start);

            size_t num_regions = all_regions.size();
            if (config_.maxRegions != 0 &&
                num_regions > config_.maxRegions)
                num_regions = config_.maxRegions;
            // Copy out: workspace.regions is shared scratch and the
            // next activation overwrites it while this strand is still
            // in flight.
            task.regions.assign(
                all_regions.begin(),
                all_regions.begin() +
                    static_cast<std::ptrdiff_t>(num_regions));
            task.outcomes.resize(num_regions);
            for (RegionOutcome &outcome : task.outcomes)
                outcome.state = 0;

            task.earlyExitEdits =
                config_.earlyExitFraction > 0.0
                    ? static_cast<int>(
                          std::ceil(config_.earlyExitFraction *
                                    config_.minseed.errorRate *
                                    static_cast<double>(task.read.size())))
                    : -1;
            task.started = 0;
            task.committed = 0;
            task.inFlight = 0;
            // Field-wise reset keeps the CIGAR buffer warm.
            task.best.mapped = false;
            task.best.linearStart = 0;
            task.best.editDistance = 0;
            task.best.cigar.clear();
            task.best.regionsTried = 0;
            task.best.reverseComplemented = false;
            workspace.activeTasks.push_back(ti);
            if (task.regions.empty()) {
                finishTask(ti);
                continue;
            }
            return ti;
        }
        return -1;
    };

    // Fills one idle lane. Guaranteed work first — the next region of
    // a task with nothing outstanding, then a fresh task — and only
    // then speculation: the next region of a task whose early-exit
    // check is still in flight. Speculation thus only soaks up lanes
    // that would otherwise idle (the one-task drain at a batch tail,
    // where a read that keeps missing early exit walks a long region
    // list), and the batched kernel advances those lanes essentially
    // for free.
    const auto fillLane = [&](LaneSlot &lane) -> bool {
        for (;;) {
            int ti = -1;
            for (const int idx : workspace.activeTasks) {
                const StrandTask &task =
                    workspace.tasks[static_cast<size_t>(idx)];
                if (task.committed == task.started &&
                    task.started < task.regions.size()) {
                    ti = idx;
                    break;
                }
            }
            if (ti < 0)
                ti = activate();
            if (ti < 0) {
                for (const int idx : workspace.activeTasks) {
                    const StrandTask &task =
                        workspace.tasks[static_cast<size_t>(idx)];
                    if (task.started < task.regions.size()) {
                        ti = idx;
                        break;
                    }
                }
            }
            if (ti < 0)
                return false;
            if (startRegion(ti, lane))
                return true;
        }
    };

    for (;;) {
        // Fill every idle lane, then batch the pending requests.
        LaneSlot *pending[bitops::kBatchLanes];
        int num_pending = 0;
        for (LaneSlot &lane : workspace.lanes) {
            if (lane.task < 0 && !fillLane(lane))
                continue;
            pending[num_pending++] = &lane;
        }
        if (num_pending == 0)
            break;

        const auto align_start = timed ? clock::now() : clock::time_point{};
        // Every pending request joins one batch (k is uniform: every
        // request carries config_.bitalign.windowEditCap, and
        // alignWindowBatch pads mixed widths to the widest lane), so
        // rounds with >= 2 active lanes always go through the
        // lane-batched kernels; only a lone draining lane takes the
        // per-window path. Lane order is deterministic, so the
        // occupancy counters are too.
        if (num_pending >= 2) {
            const align::WindowedAlignStream::Request
                *requests[bitops::kBatchLanes];
            align::WindowResult *window_results[bitops::kBatchLanes];
            for (int i = 0; i < num_pending; ++i) {
                requests[i] = &pending[i]->stream.request();
                window_results[i] = &pending[i]->window;
            }
            align::alignWindowBatch(requests, window_results, num_pending,
                                    workspace.batch);
            ++local.batchLaunches;
            local.batchedWindows += static_cast<uint64_t>(num_pending);
        } else {
            const align::WindowedAlignStream::Request &request =
                pending[0]->stream.request();
            align::alignWindow(request.window, request.pattern, request.k,
                               request.mode, workspace.align,
                               pending[0]->window);
            ++local.scalarWindows;
        }
        if (timed)
            local.timings.alignSec += secondsSince(align_start);

        // Feed results back; streams that finish buffer their region's
        // outcome and trigger in-order commits. A commit may retire a
        // task mid-loop; later pending lanes it was speculating on are
        // skipped (their lane.task was reset to idle).
        for (int i = 0; i < num_pending; ++i) {
            LaneSlot &lane = *pending[i];
            if (lane.task < 0)
                continue;
            lane.stream.consume(lane.window);
            if (!lane.stream.done())
                continue;
            const int ti = lane.task;
            StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
            task.outcomes[lane.region].state = 2;
            task.outcomes[lane.region].alignment =
                std::move(lane.alignment);
            --task.inFlight;
            lane.task = -1;
            runCommits(ti);
        }
    }

    // Net read-level accounting: both strands of a read were one
    // logical read (readsMapped was already counted per merged read).
    local.readsTotal = reads.size();
    if (stats != nullptr)
        *stats += local;
}

} // namespace segram::core
