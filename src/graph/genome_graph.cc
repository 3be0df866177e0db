#include "src/graph/genome_graph.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

#include "src/util/check.h"
#include "src/util/disjoint_set.h"

namespace segram::graph
{

std::string
GenomeGraph::nodeSeq(NodeId id) const
{
    std::string out;
    nodeSeq(id, out);
    return out;
}

void
GenomeGraph::nodeSeq(NodeId id, std::string &out) const
{
    const NodeRecord &record = nodes_[id];
    chars_.substr(record.seqStart, record.seqLen, out);
}

uint8_t
GenomeGraph::charAt(NodeId id, uint32_t offset) const
{
    const NodeRecord &record = nodes_[id];
    SEGRAM_DCHECK(offset < record.seqLen, "offset past the node sequence");
    return chars_.codeAt(record.seqStart + offset);
}

uint8_t
GenomeGraph::charAtLinear(uint64_t linear_pos) const
{
    // Linear offsets coincide with character-table indices because nodes
    // are laid out consecutively in ID order.
    SEGRAM_DCHECK(linear_pos < chars_.size(),
                  "linear position past the concatenated sequence");
    return chars_.codeAt(linear_pos);
}

std::span<const NodeId>
GenomeGraph::successors(NodeId id) const
{
    const NodeRecord &record = nodes_[id];
    return {edges_.data() + record.edgeStart, record.edgeCount};
}

NodeId
GenomeGraph::nodeAtLinear(uint64_t linear_pos) const
{
    SEGRAM_DCHECK(linear_pos < totalSeqLen(),
                  "linear position past the graph");
    // First node whose linearOffset is > linear_pos, minus one.
    auto it = std::upper_bound(
        nodes_.begin(), nodes_.end(), linear_pos,
        [](uint64_t pos, const NodeRecord &node) {
            return pos < node.linearOffset;
        });
    SEGRAM_DCHECK(it != nodes_.begin(),
                  "no node starts at or before this position");
    return static_cast<NodeId>(std::distance(nodes_.begin(), it) - 1);
}

bool
GenomeGraph::isTopologicallySorted() const
{
    for (NodeId id = 0; id < numNodes(); ++id) {
        for (const NodeId succ : successors(id)) {
            if (succ <= id)
                return false;
        }
    }
    return true;
}

GenomeGraph
GenomeGraph::topologicallySorted() const
{
    // Kahn's algorithm; ties are broken by smallest original ID so the
    // result is deterministic and reference backbones stay in order.
    std::vector<uint32_t> in_degree(numNodes(), 0);
    for (const NodeId target : edges_)
        ++in_degree[target];

    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId id = 0; id < numNodes(); ++id) {
        if (in_degree[id] == 0)
            ready.push(id);
    }

    std::vector<NodeId> order; // order[new_id] = old_id
    order.reserve(numNodes());
    while (!ready.empty()) {
        const NodeId id = ready.top();
        ready.pop();
        order.push_back(id);
        for (const NodeId succ : successors(id)) {
            if (--in_degree[succ] == 0)
                ready.push(succ);
        }
    }
    SEGRAM_CHECK(order.size() == numNodes(),
                 "genome graph contains a cycle; cannot topologically sort");

    std::vector<NodeId> new_id(numNodes());
    for (NodeId rank = 0; rank < order.size(); ++rank)
        new_id[order[rank]] = rank;

    GraphBuilder builder;
    for (const NodeId old_id : order) {
        const NodeRecord &record = nodes_[old_id];
        builder.addNode(nodeSeq(old_id), record.refPos, record.isAlt);
    }
    for (NodeId id = 0; id < numNodes(); ++id) {
        for (const NodeId succ : successors(id))
            builder.addEdge(new_id[id], new_id[succ]);
    }
    return std::move(builder).build();
}

io::GfaDocument
GenomeGraph::toGfa(std::string_view ref_path_name) const
{
    io::GfaDocument doc;
    doc.segments.reserve(numNodes());
    for (NodeId id = 0; id < numNodes(); ++id)
        doc.segments.push_back({std::to_string(id + 1), nodeSeq(id)});
    doc.links.reserve(numEdges());
    for (NodeId id = 0; id < numNodes(); ++id) {
        for (const NodeId succ : successors(id)) {
            doc.links.push_back(
                {std::to_string(id + 1), std::to_string(succ + 1)});
        }
    }
    if (!ref_path_name.empty()) {
        io::GfaPath path;
        path.name = std::string(ref_path_name);
        for (NodeId id = 0; id < numNodes(); ++id) {
            if (!nodes_[id].isAlt)
                path.steps.push_back(std::to_string(id + 1));
        }
        if (!path.steps.empty())
            doc.paths.push_back(std::move(path));
    }
    return doc;
}

namespace
{

/**
 * The canonical segment-name order used to break topological-sort
 * ties: shorter names first, then lexicographic. On numeric names
 * without leading zeros this is exactly numeric order, so a document
 * exported in node-ID order re-imports in the same order.
 */
bool
canonicalNameLess(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return a.size() < b.size();
    return a < b;
}

} // namespace

GenomeGraph
GenomeGraph::fromGfa(const io::GfaDocument &doc)
{
    SEGRAM_CHECK(!doc.segments.empty(), "GFA document has no segments");
    const size_t n = doc.segments.size();
    const auto doc_index = io::segmentIndexByName(doc);
    const auto lookup = [&doc_index](const std::string &name) {
        return io::lookupSegment(doc_index, name);
    };

    // Adjacency in document-index space.
    std::vector<std::vector<uint32_t>> succs(n);
    std::vector<uint32_t> in_degree(n, 0);
    for (const auto &link : doc.links) {
        const uint32_t from = lookup(link.from);
        const uint32_t to = lookup(link.to);
        SEGRAM_CHECK(from != to, "GFA self-loop on segment " + link.from);
        succs[from].push_back(to);
        ++in_degree[to];
    }

    // Canonical topological sort (the `vg ids -s` step the paper's
    // pre-processing performs): Kahn's algorithm with ties broken by
    // canonical segment name, so the node order depends only on the
    // graph and its names — never on the order of S lines in the file.
    const auto ready_order = [&doc](uint32_t a, uint32_t b) {
        // std::priority_queue is a max-heap; invert for a min-heap.
        return canonicalNameLess(doc.segments[b].name,
                                 doc.segments[a].name);
    };
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        decltype(ready_order)>
        ready(ready_order);
    std::vector<uint32_t> degree = in_degree;
    for (uint32_t i = 0; i < n; ++i) {
        if (degree[i] == 0)
            ready.push(i);
    }
    std::vector<uint32_t> order; // order[rank] = doc index
    order.reserve(n);
    while (!ready.empty()) {
        const uint32_t i = ready.top();
        ready.pop();
        order.push_back(i);
        for (const uint32_t succ : succs[i]) {
            if (--degree[succ] == 0)
                ready.push(succ);
        }
    }
    if (order.size() != n) {
        // Every unprocessed segment sits on (or downstream of) a
        // cycle; name one so the error is actionable.
        std::string cyclic;
        for (uint32_t i = 0; i < n && cyclic.empty(); ++i) {
            if (degree[i] != 0)
                cyclic = doc.segments[i].name;
        }
        SEGRAM_CHECK(false, "GFA link structure is cyclic (segment " +
                                cyclic + " is on a cycle); genome "
                                "graphs must be acyclic");
    }

    std::vector<NodeId> rank(n);
    for (uint32_t r = 0; r < n; ++r)
        rank[order[r]] = static_cast<NodeId>(r);

    // Path metadata. Only *reference* paths define path-space
    // coordinates: the first path through each connected component is
    // its reference walk; every later path touching that component is
    // an alternate haplotype walk and must not override reference
    // coordinates (a bubble branch covered only by a haplotype walk
    // stays ALT and projects to its divergence point below).
    // Components come from a union-find over the undirected links.
    util::DisjointSet components(n);
    for (uint32_t i = 0; i < n; ++i) {
        for (const uint32_t succ : succs[i])
            components.unite(i, succ);
    }

    std::vector<bool> on_path(n, false);
    std::vector<bool> component_has_reference(n, false);
    std::vector<uint64_t> path_pos(n, 0);
    std::vector<uint32_t> steps;
    for (const auto &path : doc.paths) {
        steps.clear();
        uint32_t prev = 0;
        bool first = true;
        for (const auto &step : path.steps) {
            const uint32_t i = lookup(step);
            if (!first) {
                bool linked = false;
                for (const uint32_t succ : succs[prev])
                    linked = linked || succ == i;
                SEGRAM_CHECK(linked, "GFA path " + path.name +
                                         " steps from " +
                                         doc.segments[prev].name +
                                         " to " + step +
                                         " without a link");
            }
            steps.push_back(i);
            prev = i;
            first = false;
        }
        const uint32_t root = components.find(steps.front());
        if (component_has_reference[root])
            continue; // haplotype walk: sets no coordinates
        component_has_reference[root] = true;
        uint64_t offset = 0;
        for (const uint32_t i : steps) {
            on_path[i] = true;
            path_pos[i] = offset;
            offset += doc.segments[i].seq.size();
        }
    }
    // Off-path (ALT) nodes project to the path position where their
    // bubble diverges: the furthest projected end of any predecessor,
    // computed in topological order. On-path predecessors contribute
    // refPos + length (they consume reference); off-path predecessors
    // contribute their own projection (an ALT chain consumes none).
    const bool has_paths = !doc.paths.empty();
    if (has_paths) {
        for (uint32_t r = 0; r < n; ++r) {
            const uint32_t i = order[r];
            for (const uint32_t succ : succs[i]) {
                if (on_path[succ])
                    continue;
                const uint64_t proj =
                    on_path[i] ? path_pos[i] + doc.segments[i].seq.size()
                               : path_pos[i];
                path_pos[succ] = std::max(path_pos[succ], proj);
            }
        }
    } else {
        // No path metadata: path space degenerates to the
        // concatenated coordinate system (refPos = linearOffset), so
        // pathProject() is the identity instead of resetting at every
        // segment boundary.
        uint64_t offset = 0;
        for (uint32_t r = 0; r < n; ++r) {
            path_pos[order[r]] = offset;
            offset += doc.segments[order[r]].seq.size();
        }
    }

    GraphBuilder builder;
    for (uint32_t r = 0; r < n; ++r) {
        const uint32_t i = order[r];
        // NodeRecord::refPos is 32-bit; a silent wrap would corrupt
        // every --path-coords report past 4 Gbp.
        SEGRAM_CHECK(path_pos[i] <=
                         std::numeric_limits<uint32_t>::max(),
                     "GFA reference path exceeds the 4 Gbp "
                     "path-coordinate limit at segment " +
                         doc.segments[i].name);
        builder.addNode(doc.segments[i].seq,
                        static_cast<uint32_t>(path_pos[i]),
                        has_paths && !on_path[i]);
    }
    for (uint32_t i = 0; i < n; ++i) {
        for (const uint32_t succ : succs[i])
            builder.addEdge(rank[i], rank[succ]);
    }
    return std::move(builder).build();
}

uint64_t
GenomeGraph::pathLength() const
{
    uint64_t length = 0;
    for (NodeId id = 0; id < numNodes(); ++id) {
        if (!nodes_[id].isAlt)
            length += nodes_[id].seqLen;
    }
    return length;
}

uint64_t
GenomeGraph::pathProject(uint64_t linear_pos) const
{
    const NodeId id = nodeAtLinear(linear_pos);
    const NodeRecord &record = nodes_[id];
    if (record.isAlt)
        return record.refPos;
    return record.refPos + (linear_pos - record.linearOffset);
}

NodeId
GraphBuilder::addNode(std::string_view seq, uint32_t ref_pos, bool is_alt)
{
    SEGRAM_CHECK(!seq.empty(), "graph nodes must have non-empty sequences");
    seqs_.emplace_back(seq);
    meta_.push_back({ref_pos, is_alt});
    return static_cast<NodeId>(seqs_.size() - 1);
}

void
GraphBuilder::addEdge(NodeId from, NodeId to)
{
    edges_.emplace_back(from, to);
}

GenomeGraph
GraphBuilder::build() &&
{
    const auto num_nodes = static_cast<NodeId>(seqs_.size());
    for (const auto &[from, to] : edges_) {
        SEGRAM_CHECK(from < num_nodes && to < num_nodes,
                     "graph edge endpoint out of range");
        SEGRAM_CHECK(from != to, "graph self-loops are not allowed");
    }

    GenomeGraph out;
    auto &nodes = out.nodes_.vec();
    nodes.resize(num_nodes);

    // Character table + linear offsets.
    uint64_t offset = 0;
    for (NodeId id = 0; id < num_nodes; ++id) {
        NodeRecord &record = nodes[id];
        record.seqStart = offset;
        record.seqLen = static_cast<uint32_t>(seqs_[id].size());
        record.linearOffset = offset;
        record.refPos = meta_[id].refPos;
        record.isAlt = meta_[id].isAlt;
        out.chars_.append(seqs_[id]);
        offset += record.seqLen;
    }

    // Edge table in CSR form, successors sorted for determinism.
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
    auto &out_edges = out.edges_.vec();
    out_edges.resize(edges_.size());
    size_t edge_idx = 0;
    for (NodeId id = 0; id < num_nodes; ++id) {
        NodeRecord &record = nodes[id];
        record.edgeStart = static_cast<uint32_t>(edge_idx);
        while (edge_idx < edges_.size() && edges_[edge_idx].first == id) {
            out_edges[edge_idx] = edges_[edge_idx].second;
            ++edge_idx;
        }
        record.edgeCount =
            static_cast<uint32_t>(edge_idx - record.edgeStart);
    }
    return out;
}

} // namespace segram::graph
