/**
 * @file
 * The genome graph: a topologically sorted DAG over DNA segments, stored
 * with the paper's three-table memory layout (Fig. 5):
 *
 *  - the *node table*, one 32 B record per node: sequence length, start
 *    index into the character table, outgoing edge count, start index
 *    into the edge table (we additionally keep the node's cumulative
 *    "linear offset", which the hardware derives implicitly from
 *    consecutive node IDs);
 *  - the *character table*, 2 bits per base;
 *  - the *edge table*, one 4 B successor node ID per outgoing edge.
 *
 * Node IDs double as topological ranks once the graph is sorted, so a
 * candidate reference region is simply a consecutive node-ID range —
 * exactly the property MinSeed's subgraph fetch relies on.
 */

#ifndef SEGRAM_SRC_GRAPH_GENOME_GRAPH_H
#define SEGRAM_SRC_GRAPH_GENOME_GRAPH_H

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/io/gfa.h"
#include "src/util/packed_seq.h"
#include "src/util/table_storage.h"

namespace segram::graph
{

/** Node identifier; also the topological rank in a sorted graph. */
using NodeId = uint32_t;

/**
 * One node-table record. seqStart/seqLen/edgeStart/edgeCount mirror the
 * paper's 32 B layout; linearOffset is the concatenated-coordinate
 * start of the node (derivable from the table, cached for O(1)
 * seed-region math), and the metadata fields (refPos, isAlt) exist only
 * for evaluation bookkeeping, not in the hardware layout.
 *
 * The layout is byte-exact on purpose — the `.segram` pack format
 * stores the node table as these raw records, so every byte (including
 * the trailing pad) is an explicit, zero-initialized field and the
 * struct is asserted trivially copyable below.
 */
struct NodeRecord
{
    uint64_t seqStart = 0;     ///< first character-table index
    uint64_t linearOffset = 0; ///< cumulative char offset of this node
    uint32_t seqLen = 0;       ///< node sequence length in bases
    uint32_t edgeStart = 0;    ///< first edge-table index
    uint32_t edgeCount = 0;    ///< number of outgoing edges
    uint32_t refPos = 0;       ///< linear-reference coordinate (metadata)
    bool isAlt = false;        ///< true for alternative-allele nodes
    uint8_t reserved[7] = {};  ///< explicit padding, always zero
};

static_assert(sizeof(NodeRecord) == 40 &&
                  std::is_trivially_copyable_v<NodeRecord>,
              "NodeRecord is serialized raw into .segram packs");

/**
 * An immutable genome graph. Build one through GraphBuilder (reference +
 * variants), fromGfa(), or the simulators; then query it from the
 * seeding/alignment pipeline.
 */
class GenomeGraph
{
  public:
    GenomeGraph() = default;

    /** @return Number of nodes. */
    size_t numNodes() const { return nodes_.size(); }

    /** @return Number of directed edges. */
    size_t numEdges() const { return edges_.size(); }

    /** @return Total sequence length over all nodes. */
    uint64_t totalSeqLen() const { return chars_.size(); }

    /** @return The node-table record for @p id. */
    const NodeRecord &node(NodeId id) const { return nodes_[id]; }

    /** @return The sequence of node @p id as an ACGT string. */
    std::string nodeSeq(NodeId id) const;

    /**
     * Buffer-reuse variant: writes the sequence of node @p id into
     * @p out (cleared first, capacity retained across calls).
     */
    void nodeSeq(NodeId id, std::string &out) const;

    /** @return 2-bit code of character @p offset within node @p id. */
    uint8_t charAt(NodeId id, uint32_t offset) const;

    /** @return 2-bit code at concatenated-coordinate @p linear_pos. */
    uint8_t charAtLinear(uint64_t linear_pos) const;

    /** @return The successor node IDs of @p id. */
    std::span<const NodeId> successors(NodeId id) const;

    /**
     * @return The node whose [linearOffset, linearOffset+seqLen) range
     *         contains @p linear_pos (binary search over node table).
     */
    NodeId nodeAtLinear(uint64_t linear_pos) const;

    /**
     * @return True iff every edge points from a lower to a higher node
     *         ID, i.e. node IDs are a topological order.
     */
    bool isTopologicallySorted() const;

    /**
     * @return A copy of this graph with node IDs relabeled into a
     *         topological order (the `vg ids -s` step of pre-processing).
     * @throws InputError if the graph contains a cycle.
     */
    GenomeGraph topologicallySorted() const;

    /** @return Fig. 5 node-table footprint: numNodes() * 32 bytes. */
    uint64_t nodeTableBytes() const { return numNodes() * 32; }

    /** @return Fig. 5 character-table footprint: 2 bits per base. */
    uint64_t charTableBytes() const { return (totalSeqLen() * 2 + 7) / 8; }

    /** @return Fig. 5 edge-table footprint: 4 bytes per edge. */
    uint64_t edgeTableBytes() const { return numEdges() * 4; }

    /** @return Total graph footprint in bytes per the Fig. 5 layout. */
    uint64_t
    totalBytes() const
    {
        return nodeTableBytes() + charTableBytes() + edgeTableBytes();
    }

    /**
     * @return This graph as a GFA document with 1-based numeric names.
     *         When @p ref_path_name is non-empty, a P line of that name
     *         walks the non-ALT (reference backbone) nodes in ID order,
     *         preserving the path-space coordinate system (refPos/isAlt
     *         metadata) across a GFA round trip. Graphs built by
     *         buildGraph() always have a connected backbone, which is
     *         what makes that walk a valid path.
     */
    io::GfaDocument toGfa(std::string_view ref_path_name = {}) const;

    /**
     * Builds a graph from a GFA document.
     *
     * Node IDs are assigned by a canonical topological sort (Kahn's
     * algorithm, ties broken by shortest-then-lexicographic segment
     * name), so the result is independent of the segment order in the
     * document and always satisfies the node-ID-equals-topological-rank
     * invariant that MinSeed's consecutive-ID subgraph fetch and
     * LinearizedGraph rely on. For numerically named segments
     * (vg-style "1", "2", ... without leading zeros) the tie-break
     * coincides with numeric order, so importing a GFA that was
     * exported with toGfa() reproduces the original node order
     * exactly.
     *
     * When the document carries paths, its *reference* paths define
     * path-space coordinates: the first path through each connected
     * component (by document order) is that component's reference
     * walk; every later path touching the same component is an
     * alternate haplotype walk and sets no coordinates. Nodes on a
     * reference path get refPos = cumulative offset along it and
     * isAlt = false; all other nodes get isAlt = true and refPos
     * projected from their predecessors (the path position where
     * their bubble diverges). Consecutive path steps must be
     * connected by links. Documents without any path get
     * refPos = linearOffset (path space degenerates to concatenated
     * coordinates) and no ALT marks.
     *
     * @throws InputError on empty documents, undeclared or duplicate
     *         segments, cyclic link structure (named in the message),
     *         or a path whose consecutive steps are not linked.
     */
    static GenomeGraph fromGfa(const io::GfaDocument &doc);

    /**
     * @return Length of the reference path: the total sequence length
     *         of the non-ALT nodes. For a graph built from FASTA+VCF
     *         this is the chromosome length; for an imported GFA it is
     *         the length of the reference path (or totalSeqLen() when
     *         the graph had no path metadata, since then no node is
     *         marked ALT). O(numNodes).
     */
    uint64_t pathLength() const;

    /**
     * Projects a concatenated-coordinate position onto the reference
     * path: positions inside on-path nodes map exactly
     * (refPos + in-node offset); positions inside ALT nodes map to the
     * path position where their bubble diverges (the node's refPos).
     */
    uint64_t pathProject(uint64_t linear_pos) const;

  private:
    friend class GraphBuilder;
    friend class segram::io::PackCodec;

    util::TableStorage<NodeRecord> nodes_;
    util::TableStorage<NodeId> edges_;
    PackedSeq chars_;
};

/**
 * Incremental builder for GenomeGraph. Add nodes and edges in any order,
 * then call build(); build validates edge targets and rejects
 * self-loops, computes the edge CSR layout and linear offsets.
 */
class GraphBuilder
{
  public:
    /**
     * Adds a node.
     *
     * @param seq     Node sequence (non-empty ACGT).
     * @param ref_pos Linear-reference coordinate metadata.
     * @param is_alt  True for alternative-allele nodes.
     * @return The new node's ID (consecutive from 0).
     */
    NodeId addNode(std::string_view seq, uint32_t ref_pos = 0,
                   bool is_alt = false);

    /** Adds a directed edge @p from -> @p to. */
    void addEdge(NodeId from, NodeId to);

    /** @return Number of nodes added so far. */
    size_t numNodes() const { return seqs_.size(); }

    /**
     * Finalizes into an immutable graph.
     *
     * @throws InputError on dangling edge endpoints or self-loops.
     */
    GenomeGraph build() &&;

  private:
    struct PendingNode
    {
        uint32_t refPos;
        bool isAlt;
    };

    std::vector<std::string> seqs_;
    std::vector<PendingNode> meta_;
    std::vector<std::pair<NodeId, NodeId>> edges_;
};

} // namespace segram::graph

#endif // SEGRAM_SRC_GRAPH_GENOME_GRAPH_H
