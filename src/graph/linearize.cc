#include "src/graph/linearize.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::graph
{

std::string
LinearizedGraph::toString() const
{
    std::string out;
    out.reserve(codes_.size());
    for (const uint8_t code : codes_)
        out.push_back(codeToBase(code));
    return out;
}

LinearizedGraph
LinearizedGraph::window(int pos, int len) const
{
    SEGRAM_DCHECK(pos >= 0 && len >= 0 && pos + len <= size(),
                  "slice outside the linearized text");
    LinearizedGraph out;
    out.linear_start_ = linear_start_ + static_cast<uint64_t>(pos);
    for (int i = 0; i < len; ++i) {
        const int src = pos + i;
        std::vector<uint16_t> deltas;
        for (const uint16_t delta : successorDeltas(src)) {
            if (src + delta < pos + len)
                deltas.push_back(delta);
        }
        out.pushChar(codeToBase(codes_[src]), std::move(deltas),
                     origins_[src]);
    }
    out.finalize();
    return out;
}

void
LinearizedGraph::pushChar(char base, std::vector<uint16_t> deltas,
                          CharOrigin origin)
{
    const uint8_t code = baseToCode(base);
    SEGRAM_CHECK(code != kInvalidBaseCode,
                 "linearized graph characters must be ACGT");
    appendChar(code, origin);
    for (const uint16_t delta : deltas)
        addDeltaToLast(delta);
}

void
LinearizedGraph::clear()
{
    codes_.clear();
    origins_.clear();
    succ_deltas_.clear();
    succ_offsets_.clear();
    succ_offsets_.push_back(0);
    linear_start_ = 0;
    dropped_hops_ = 0;
    max_delta_ = 0;
}

void
LinearizedGraph::finalize()
{
    max_delta_ = 0;
    for (int pos = 0; pos < size(); ++pos) {
        for (const uint16_t delta : successorDeltas(pos)) {
            SEGRAM_CHECK(delta > 0, "successor deltas must be positive");
            SEGRAM_CHECK(pos + delta < size(),
                         "successor delta leaves the linearized graph");
            max_delta_ = std::max<int>(max_delta_, delta);
        }
    }
}

void
linearizeRange(const GenomeGraph &graph, uint64_t start, uint64_t end,
               int hop_limit, LinearizedGraph &out)
{
    SEGRAM_CHECK(graph.totalSeqLen() > 0, "cannot linearize an empty graph");
    end = std::min<uint64_t>(end, graph.totalSeqLen() - 1);
    start = std::min(start, end);

    const NodeId first = graph.nodeAtLinear(start);
    const NodeId last = graph.nodeAtLinear(end);

    out.clear();
    out.linear_start_ = start;

    // Concatenated coordinates [start, end] map 1:1 onto window
    // positions, because nodes are laid out consecutively in ID order.
    for (NodeId id = first; id <= last; ++id) {
        const NodeRecord &node = graph.node(id);
        const uint64_t node_first = std::max(node.linearOffset, start);
        const uint64_t node_last =
            std::min(node.linearOffset + node.seqLen - 1, end);
        const bool clipped_right =
            node_last < node.linearOffset + node.seqLen - 1;

        for (uint64_t coord = node_first; coord <= node_last; ++coord) {
            out.appendChar(
                graph.charAtLinear(coord),
                {id, static_cast<uint32_t>(coord - node.linearOffset)});
            if (coord < node_last) {
                out.addDeltaToLast(1); // intra-node chain edge
            } else if (!clipped_right) {
                // True last character of the node: emit hops.
                // Only the edges of in-region nodes shape the output, so
                // sortedness is checked per edge here: O(region), where
                // a whole-graph scan would cost O(graph) per call.
                for (const NodeId succ : graph.successors(id)) {
                    SEGRAM_CHECK(succ > id, "linearization requires a "
                                            "topologically sorted graph");
                    if (succ > last) {
                        continue; // successor outside the region
                    }
                    const uint64_t target = graph.node(succ).linearOffset;
                    SEGRAM_DCHECK(target > coord && target <= end,
                                  "successor offset leaves the region");
                    const uint64_t delta = target - coord;
                    const bool representable =
                        delta <= UINT16_MAX &&
                        (hop_limit == kUnlimitedHops ||
                         delta <= static_cast<uint64_t>(hop_limit));
                    if (representable) {
                        out.addDeltaToLast(static_cast<uint16_t>(delta));
                    } else {
                        ++out.dropped_hops_;
                    }
                }
            }
        }
    }
    out.finalize();
}

LinearizedGraph
linearizeRange(const GenomeGraph &graph, uint64_t start, uint64_t end,
               int hop_limit)
{
    LinearizedGraph out;
    linearizeRange(graph, start, end, hop_limit, out);
    return out;
}

LinearizedGraph
linearizeWhole(const GenomeGraph &graph, int hop_limit)
{
    return linearizeRange(graph, 0, graph.totalSeqLen() - 1, hop_limit);
}

std::vector<uint64_t>
hopLengthHistogram(const GenomeGraph &graph, int max_tracked)
{
    // One scan per whole-graph analysis, not per region.
    // segram-lint: allow(hot-path-graph-scan)
    SEGRAM_CHECK(graph.isTopologicallySorted(),
                 "hop analysis requires a topologically sorted graph");
    std::vector<uint64_t> histogram(max_tracked + 1, 0);
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const NodeRecord &node = graph.node(id);
        const uint64_t source = node.linearOffset + node.seqLen - 1;
        for (const NodeId succ : graph.successors(id)) {
            const uint64_t distance =
                graph.node(succ).linearOffset - source;
            const auto bucket = static_cast<size_t>(
                std::min<uint64_t>(distance, max_tracked));
            ++histogram[bucket];
        }
    }
    return histogram;
}

double
hopCoverage(const std::vector<uint64_t> &histogram, int hop_limit)
{
    uint64_t total = 0;
    uint64_t covered = 0;
    for (size_t distance = 0; distance < histogram.size(); ++distance) {
        total += histogram[distance];
        if (distance <= static_cast<size_t>(hop_limit))
            covered += histogram[distance];
    }
    return total == 0 ? 1.0 : static_cast<double>(covered) /
                                  static_cast<double>(total);
}

} // namespace segram::graph
