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

using Clock = std::chrono::steady_clock;

/** Seconds since @p start (stage-timing probe; reporting only). */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

SegramConfig
SegramConfig::product(double error_rate)
{
    SegramConfig config;
    config.minseed.errorRate = error_rate;
    config.bitalign.windowEditCap = std::max(
        32, static_cast<int>(config.bitalign.windowLen * error_rate * 3));
    config.earlyExitFraction = 1.5;
    config.tryReverseComplement = true;
    return config;
}

SegramMapper::SegramMapper(const graph::GenomeGraph &graph,
                           const index::MinimizerIndex &index,
                           const SegramConfig &config)
    : graph_(graph), config_(config),
      minseed_(graph, index, config.minseed)
{
    // Once per chromosome; linearizeRange checks only the edges each
    // region uses.
    // segram-lint: allow(hot-path-graph-scan)
    SEGRAM_CHECK(graph.isTopologicallySorted(),
                 "SegramMapper requires a topologically sorted graph");
    SEGRAM_CHECK(config.earlyExitFraction >= 0.0,
                 "earlyExitFraction must be >= 0");
    SEGRAM_CHECK(config.chain.maxChains >= 1,
                 "chain.maxChains must be >= 1");
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
    const auto chains =
        seed::chainSeeds(hits, config_.chain, workspace.chainScratch);

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

void
SegramMapper::planStrand(std::string_view read, int strand,
                         StrandTask &task, MapWorkspace &workspace,
                         PipelineStats &local, bool timed) const
{
    SEGRAM_CHECK(!read.empty(), "cannot map an empty read");
    task.strand = strand;
    if (strand == 0) {
        task.read = read;
    } else {
        reverseComplement(read, task.rc);
        task.read = task.rc;
    }

    const auto seed_start = timed ? Clock::now() : Clock::time_point{};
    minseed_.seedRead(task.read, workspace.regions, workspace.seed,
                      &local.seeding);
    const std::vector<seed::CandidateRegion> &all_regions =
        filterRegions(workspace, task.read.size());
    if (timed)
        local.timings.seedingSec += secondsSince(seed_start);

    size_t num_regions = all_regions.size();
    if (config_.maxRegions != 0 && num_regions > config_.maxRegions)
        num_regions = config_.maxRegions;
    // Copy out: workspace.regions is shared scratch, and the scheduler
    // plans the next strand while this one is still in flight.
    task.regions.assign(all_regions.begin(),
                        all_regions.begin() +
                            static_cast<std::ptrdiff_t>(num_regions));

    task.earlyExitEdits =
        config_.earlyExitFraction > 0.0
            ? static_cast<int>(std::ceil(config_.earlyExitFraction *
                                         config_.minseed.errorRate *
                                         static_cast<double>(read.size())))
            : -1;
    task.committed = 0;
    // Field-wise reset keeps the CIGAR buffer warm.
    task.best.mapped = false;
    task.best.linearStart = 0;
    task.best.editDistance = 0;
    task.best.cigar.clear();
    task.best.regionsTried = 0;
    task.best.reverseComplemented = false;
}

align::BitAlignConfig
SegramMapper::prepareRegion(const seed::CandidateRegion &region,
                            graph::LinearizedGraph &linearization,
                            PipelineStats &local, bool timed) const
{
    const auto stage_start = timed ? Clock::now() : Clock::time_point{};
    graph::linearizeRange(graph_, region.start, region.end,
                          config_.hopLimit, linearization);
    if (timed)
        local.timings.linearizeSec += secondsSince(stage_start);
    // The alignment start is uncertain by up to 2*E*a within the
    // region (Fig. 9); widen the first free-start window to cover the
    // whole span.
    align::BitAlignConfig bitalign = config_.bitalign;
    bitalign.firstWindowExtraText +=
        static_cast<int>(std::ceil(2.0 * config_.minseed.errorRate *
                                   region.minimizerPos)) +
        32;
    return bitalign;
}

bool
SegramMapper::commitRegion(StrandTask &task,
                           const align::GraphAlignment &alignment,
                           PipelineStats &local)
{
    ++task.committed;
    ++task.best.regionsTried;
    ++local.regionsAligned;
    if (!alignment.found)
        return false;
    ++local.alignmentsFound;
    MapResult &best = task.best;
    if (!best.mapped || alignment.editDistance < best.editDistance) {
        best.mapped = true;
        best.editDistance = alignment.editDistance;
        best.linearStart = alignment.linearStart;
        best.cigar = alignment.cigar;
    }
    return task.earlyExitEdits >= 0 &&
           best.editDistance <= task.earlyExitEdits;
}

void
SegramMapper::mergeStrands(MapResult &forward, MapResult *reverse,
                           MapResult &out, PipelineStats &local)
{
    if (reverse == nullptr) {
        out = std::move(forward);
    } else {
        reverse->reverseComplemented = true;
        // The winner reports the work of both strands, not just its
        // own.
        const uint32_t total_tried =
            forward.regionsTried + reverse->regionsTried;
        out = std::move(replacesResult(*reverse, forward) ? *reverse
                                                          : forward);
        out.regionsTried = total_tried;
    }
    ++local.readsTotal;
    if (out.mapped)
        ++local.readsMapped;
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
    PipelineStats local;
    // Stage timing is reporting-only; skip the clock entirely when the
    // caller keeps no stats.
    const bool timed = stats != nullptr;
    const int strands = config_.tryReverseComplement ? 2 : 1;
    if (workspace.tasks.size() < 2)
        workspace.tasks.resize(2);

    for (int strand = 0; strand < strands; ++strand) {
        StrandTask &task = workspace.tasks[static_cast<size_t>(strand)];
        planStrand(read, strand, task, workspace, local, timed);
        while (task.committed < task.regions.size()) {
            const align::BitAlignConfig bitalign =
                prepareRegion(task.regions[task.committed],
                              workspace.linearization, local, timed);
            const auto align_start =
                timed ? Clock::now() : Clock::time_point{};
            align::alignWindowed(workspace.linearization, task.read,
                                 bitalign, workspace.align,
                                 workspace.alignment);
            if (timed)
                local.timings.alignSec += secondsSince(align_start);
            if (commitRegion(task, workspace.alignment, local))
                break;
        }
    }

    MapResult result;
    mergeStrands(workspace.tasks[0].best,
                 strands == 2 ? &workspace.tasks[1].best : nullptr, result,
                 local);
    if (stats != nullptr)
        *stats += local;
    return result;
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

    const int strands = config_.tryReverseComplement ? 2 : 1;
    const size_t num_tasks = reads.size() * static_cast<size_t>(strands);
    size_t next_task = 0;

    workspace.lanes.resize(bitops::kBatchLanes);
    for (LaneSlot &lane : workspace.lanes)
        lane.task = -1;
    workspace.tasks.resize(2 * bitops::kBatchLanes);
    for (StrandTask &task : workspace.tasks)
        task.inUse = false;
    workspace.activeTasks.clear();
    if (strands == 2) {
        workspace.pendingStrand.resize(num_tasks);
        workspace.pendingStrandDone.assign(num_tasks, 0);
    }

    // A finished strand result either is the read's result (forward
    // only) or is staged until its sibling strand arrives.
    const auto strandDone = [&](StrandTask &task) {
        if (strands == 1) {
            mergeStrands(task.best, nullptr, results[task.readIndex],
                         local);
            return;
        }
        const size_t base = task.readIndex * 2;
        workspace.pendingStrand[base + task.strand] = std::move(task.best);
        workspace.pendingStrandDone[base + task.strand] = 1;
        if (!workspace.pendingStrandDone[base] ||
            !workspace.pendingStrandDone[base + 1])
            return;
        mergeStrands(workspace.pendingStrand[base],
                     &workspace.pendingStrand[base + 1],
                     results[task.readIndex], local);
    };

    // Retires a task: delivers its strand result, frees its pool slot
    // and aborts any still-running speculative streams of its regions
    // (work mapRead would never have done — their counters were never
    // committed, so the totals stay exactly mapRead's).
    const auto finishTask = [&](int ti) {
        StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
        for (LaneSlot &lane : workspace.lanes)
            if (lane.task == ti)
                lane.task = -1;
        auto &active = workspace.activeTasks;
        active.erase(std::find(active.begin(), active.end(), ti));
        task.inUse = false;
        strandDone(task);
    };

    // Folds finished outcomes into the strand best strictly in region
    // order, through the same commitRegion the mapRead loop calls.
    const auto runCommits = [&](int ti) {
        StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
        while (task.inUse) {
            const size_t r = task.committed;
            if (r < task.regions.size() && !task.outcomes[r].done)
                return;
            if (r == task.regions.size() ||
                commitRegion(task, task.outcomes[r].alignment, local))
                finishTask(ti);
        }
    };

    // Buffers the outcome of region @p r's finished stream in @p lane,
    // frees the lane and commits whatever is now in order.
    const auto regionDone = [&](int ti, size_t r, LaneSlot &lane) {
        RegionOutcome &outcome =
            workspace.tasks[static_cast<size_t>(ti)].outcomes[r];
        outcome.done = true;
        outcome.alignment = std::move(lane.alignment);
        lane.task = -1;
        runCommits(ti);
    };

    // Issues the next unstarted region's window stream into @p lane.
    // @return True when the lane now holds a pending window request
    // (degenerate streams complete and commit on the spot).
    const auto startRegion = [&](int ti, LaneSlot &lane) -> bool {
        StrandTask &task = workspace.tasks[static_cast<size_t>(ti)];
        const size_t r = task.started++;
        const align::BitAlignConfig bitalign = prepareRegion(
            task.regions[r], lane.linearization, local, timed);
        lane.stream.begin(lane.linearization, task.read, bitalign,
                          &lane.alignment);
        if (lane.stream.done()) {
            regionDone(ti, r, lane);
            return false;
        }
        lane.task = ti;
        lane.region = r;
        return true;
    };

    // Claims strand tasks (read-major, forward before RC) into pool
    // slots and plans them. Region-less tasks finish on the spot.
    // @return The pool index of a task with startable regions, or -1
    // when the batch is exhausted.
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
            task.readIndex = t / static_cast<size_t>(strands);
            planStrand(reads[task.readIndex],
                       static_cast<int>(t % static_cast<size_t>(strands)),
                       task, workspace, local, timed);
            task.started = 0;
            task.outcomes.resize(task.regions.size());
            for (RegionOutcome &outcome : task.outcomes)
                outcome.done = false;
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

        const auto align_start = timed ? Clock::now() : Clock::time_point{};
        // Every pending request joins one batch (k is uniform: every
        // request carries config_.bitalign.windowEditCap, and
        // alignWindowBatch pads mixed widths to the widest lane). A
        // lone draining lane runs the same kernel at one lane; it is
        // counted as a scalar window, not a launch, so the occupancy
        // counters keep their meaning. Lane order is deterministic, so
        // the counters are too.
        const align::WindowedAlignStream::Request
            *requests[bitops::kBatchLanes];
        align::WindowResult *window_results[bitops::kBatchLanes];
        for (int i = 0; i < num_pending; ++i) {
            requests[i] = &pending[i]->stream.request();
            window_results[i] = &pending[i]->window;
        }
        align::alignWindowBatch(requests, window_results, num_pending,
                                workspace.align);
        if (num_pending >= 2) {
            ++local.batchLaunches;
            local.batchedWindows += static_cast<uint64_t>(num_pending);
        } else {
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
            if (lane.stream.done())
                regionDone(lane.task, lane.region, lane);
        }
    }

    if (stats != nullptr)
        *stats += local;
}

} // namespace segram::core
