/**
 * @file
 * Subgraph linearization: the input format of BitAlign.
 *
 * BitAlign consumes a *linearized, topologically sorted* subgraph: one
 * character per position, intra-node chain edges, and inter-node "hops".
 * In hardware, hops are encoded by the HopBits adjacency matrix
 * (Fig. 12), whose height is the hop limit: a successor further than
 * `hopLimit` positions ahead cannot be represented and is dropped
 * (Fig. 13 quantifies the coverage/cost trade-off, >99% at limit 12).
 *
 * The software representation stores, per character, the list of
 * successor *deltas* (distance to each successor), which is exactly the
 * information content of one HopBits column.
 */

#ifndef SEGRAM_SRC_GRAPH_LINEARIZE_H
#define SEGRAM_SRC_GRAPH_LINEARIZE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/genome_graph.h"
#include "src/util/check.h"

namespace segram::graph
{

/** Hop limit that covers >99% of hops in human-like graphs (Fig. 13). */
constexpr int kDefaultHopLimit = 12;

/** Sentinel hop limit meaning "no limit" (software-exact mode). */
constexpr int kUnlimitedHops = 0;

/** Where one linearized character came from, for alignment reporting. */
struct CharOrigin
{
    NodeId node = 0;
    uint32_t offset = 0; ///< character offset within the node

    bool operator==(const CharOrigin &) const = default;
};

/**
 * A linearized subgraph: the reference-side input of BitAlign. Position
 * `i` holds one 2-bit character; `successorDeltas(i)` lists the forward
 * distances of its successors (1 for the implicit chain edge inside a
 * node). An empty delta list marks a sink within this window.
 */
class LinearizedGraph
{
  public:
    LinearizedGraph() = default;

    /** @return Number of characters (text length n of Algorithm 1). */
    int size() const { return static_cast<int>(codes_.size()); }

    /** @return 2-bit character code at position @p pos. */
    uint8_t code(int pos) const { return codes_[pos]; }

    /** @return The characters as an ACGT string. */
    std::string toString() const;

    /** @return Successor deltas of position @p pos (ascending). */
    std::span<const uint16_t>
    successorDeltas(int pos) const
    {
        const uint32_t begin = succ_offsets_[pos];
        const uint32_t end = succ_offsets_[pos + 1];
        return {succ_deltas_.data() + begin, end - begin};
    }

    /** @return Origin (node, offset) of position @p pos. */
    const CharOrigin &origin(int pos) const { return origins_[pos]; }

    /** @return Concatenated-coordinate of the first character. */
    uint64_t linearStart() const { return linear_start_; }

    /** @return Number of hops dropped because they exceeded the limit. */
    uint64_t droppedHops() const { return dropped_hops_; }

    /** @return Largest successor delta present (1 if chain only). */
    int maxDelta() const { return max_delta_; }

    /**
     * Extracts the sub-range [pos, pos+len) as its own linearized graph
     * (used by the divide-and-conquer windowing); hops leaving the range
     * are clipped.
     */
    LinearizedGraph window(int pos, int len) const;

    /**
     * Test/direct-construction API: appends a character with explicit
     * successor deltas. Deltas must be positive and in range once the
     * graph is complete (checked by finalize()).
     */
    void pushChar(char base, std::vector<uint16_t> deltas,
                  CharOrigin origin = {});

    /** Validates deltas and computes summary fields after pushChar use. */
    void finalize();

    /** Resets to an empty graph, keeping capacity (buffer reuse). */
    void clear();

    /**
     * Zero-allocation append API (the hot path of linearizeRange):
     * appends one character with no successors. Successor deltas are
     * attached afterwards with addDeltaToLast(). @p code must be a
     * 2-bit base code.
     */
    void
    appendChar(uint8_t code, CharOrigin origin)
    {
        SEGRAM_DCHECK(code < 4, "pushed code is not a 2-bit base");
        codes_.push_back(code);
        origins_.push_back(origin);
        succ_offsets_.push_back(succ_offsets_.back());
    }

    /**
     * Attaches one successor delta to the most recently appended
     * character, keeping its delta list sorted ascending.
     */
    void
    addDeltaToLast(uint16_t delta)
    {
        SEGRAM_DCHECK(!codes_.empty(), "successor added before any node");
        succ_deltas_.push_back(delta);
        succ_offsets_.back() = static_cast<uint32_t>(succ_deltas_.size());
        // Keep the current character's run sorted (runs are tiny, and
        // emission order is already ascending for sorted graphs).
        size_t i = succ_deltas_.size() - 1;
        const size_t begin = succ_offsets_[codes_.size() - 1];
        while (i > begin && succ_deltas_[i - 1] > succ_deltas_[i]) {
            std::swap(succ_deltas_[i - 1], succ_deltas_[i]);
            --i;
        }
        max_delta_ = std::max<int>(max_delta_, delta);
    }

  private:
    friend void linearizeRange(const GenomeGraph &, uint64_t, uint64_t,
                               int, LinearizedGraph &);

    std::vector<uint8_t> codes_;
    std::vector<uint32_t> succ_offsets_ = {0};
    std::vector<uint16_t> succ_deltas_;
    std::vector<CharOrigin> origins_;
    uint64_t linear_start_ = 0;
    uint64_t dropped_hops_ = 0;
    int max_delta_ = 0;
};

/**
 * A zero-copy window over a LinearizedGraph: the view BitAlign's
 * divide-and-conquer scheme slices per window. Where
 * LinearizedGraph::window() copies the sub-range into fresh vectors,
 * a view is three words (parent, offset, length) and clips hops that
 * leave the window on the fly — successor deltas are stored sorted, so
 * the in-window deltas of a position are a prefix of the parent's run.
 *
 * A LinearizedGraph converts implicitly to its whole-graph view, so
 * every aligner entry point takes a view and existing callers compile
 * unchanged. The parent must outlive the view.
 */
class LinearizedGraphView
{
  public:
    LinearizedGraphView() = default;

    /** Whole-graph view (implicit by design, like string -> string_view). */
    LinearizedGraphView(const LinearizedGraph &parent)
        : parent_(&parent), pos_(0), len_(parent.size())
    {
    }

    /** View of [pos, pos+len) of @p parent. */
    LinearizedGraphView(const LinearizedGraph &parent, int pos, int len)
        : parent_(&parent), pos_(pos), len_(len)
    {
        SEGRAM_DCHECK(pos >= 0 && len >= 0 && pos + len <= parent.size(),
                      "view outside its parent graph");
    }

    /** @return Number of characters in the view. */
    int size() const { return len_; }

    /** @return 2-bit character code at view position @p pos. */
    uint8_t code(int pos) const { return parent_->code(pos_ + pos); }

    /**
     * @return Successor deltas of view position @p pos, clipped to the
     *         view: hops that leave the window are dropped, exactly as
     *         LinearizedGraph::window() drops them when copying.
     */
    std::span<const uint16_t>
    successorDeltas(int pos) const
    {
        const auto full = parent_->successorDeltas(pos_ + pos);
        const int limit = len_ - 1 - pos;
        size_t count = full.size();
        // Deltas are sorted ascending: out-of-window hops are a suffix.
        while (count > 0 && full[count - 1] > limit)
            --count;
        return full.first(count);
    }

    /** @return Origin (node, offset) of view position @p pos. */
    const CharOrigin &
    origin(int pos) const
    {
        return parent_->origin(pos_ + pos);
    }

    /** @return Concatenated-coordinate of the view's first character. */
    uint64_t
    linearStart() const
    {
        return parent_->linearStart() + static_cast<uint64_t>(pos_);
    }

    /** @return The sub-view [pos, pos+len) (composes like window()). */
    LinearizedGraphView
    window(int pos, int len) const
    {
        SEGRAM_DCHECK(pos >= 0 && len >= 0 && pos + len <= len_,
                      "subview outside this view");
        return {*parent_, pos_ + pos, len};
    }

  private:
    const LinearizedGraph *parent_ = nullptr;
    int pos_ = 0;
    int len_ = 0;
};

/**
 * Linearizes the concatenated-coordinate range [start, end] of a
 * topologically sorted graph (both inclusive; clamped to the sequence).
 *
 * @param graph     The (whole) genome graph.
 * @param start     First concatenated coordinate of the region.
 * @param end       Last concatenated coordinate of the region.
 * @param hop_limit Maximum representable hop distance (HopBits height);
 *                  kUnlimitedHops disables dropping. Hops that leave the
 *                  region are always dropped (they cannot take part in
 *                  this window's alignment).
 * @throws InputError if an edge of a node inside the range points to a
 *         lower node ID. Only those edges shape the output, so the cost
 *         stays O(region); whole-graph sortedness is checked once, by the
 *         mapper constructors.
 */
LinearizedGraph linearizeRange(const GenomeGraph &graph, uint64_t start,
                               uint64_t end,
                               int hop_limit = kUnlimitedHops);

/**
 * Buffer-reuse variant: clears @p out and fills it in place, appending
 * into its existing storage. The hot path calls this with a
 * workspace-owned LinearizedGraph, so steady-state linearization costs
 * zero heap allocations.
 */
void linearizeRange(const GenomeGraph &graph, uint64_t start, uint64_t end,
                    int hop_limit, LinearizedGraph &out);

/** Linearizes an entire graph (convenience for small graphs/baselines). */
LinearizedGraph linearizeWhole(const GenomeGraph &graph,
                               int hop_limit = kUnlimitedHops);

/**
 * Histogram of hop distances over a whole graph, in linearized-character
 * units (a plain intra-node edge has distance 1). Index `d` counts hops
 * of distance `d`; the last bucket aggregates overflow. This is the data
 * behind Fig. 13.
 */
std::vector<uint64_t> hopLengthHistogram(const GenomeGraph &graph,
                                         int max_tracked = 64);

/**
 * @return Fraction of hops with distance <= @p hop_limit, computed from
 *         a hopLengthHistogram() result.
 */
double hopCoverage(const std::vector<uint64_t> &histogram, int hop_limit);

} // namespace segram::graph

#endif // SEGRAM_SRC_GRAPH_LINEARIZE_H
