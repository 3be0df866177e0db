/**
 * @file
 * Tests for the graph substrate: variant canonicalization, graph
 * construction from reference + variants (Fig. 5 layout), topological
 * sorting, linearization with HopBits (Fig. 12) and the hop histogram
 * behind Fig. 13.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "src/core/segram.h"
#include "src/graph/genome_graph.h"
#include "src/graph/graph_builder.h"
#include "src/graph/linearize.h"
#include "src/graph/variants.h"
#include "src/index/minimizer_index.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::graph
{
namespace
{

TEST(Variants, CanonicalizeSnp)
{
    const Variant v = canonicalize({"chr1", 5, ".", "A", "G"});
    EXPECT_EQ(v.pos, 4u);
    EXPECT_EQ(v.ref, "A");
    EXPECT_EQ(v.alt, "G");
    EXPECT_EQ(v.kind(), VariantKind::Substitution);
}

TEST(Variants, CanonicalizePaddedIndels)
{
    // Deletion of "CT": REF=ACT ALT=A at pos 10 (1-based).
    const Variant del = canonicalize({"chr1", 10, ".", "ACT", "A"});
    EXPECT_EQ(del.pos, 10u);
    EXPECT_EQ(del.ref, "CT");
    EXPECT_EQ(del.alt, "");
    EXPECT_EQ(del.kind(), VariantKind::Deletion);

    // Insertion of "GG" after the padding base.
    const Variant ins = canonicalize({"chr1", 10, ".", "A", "AGG"});
    EXPECT_EQ(ins.pos, 10u);
    EXPECT_EQ(ins.ref, "");
    EXPECT_EQ(ins.alt, "GG");
    EXPECT_EQ(ins.kind(), VariantKind::Insertion);
}

TEST(Variants, CanonicalizeSetDropsOverlapsAndSorts)
{
    const std::vector<io::VcfRecord> records = {
        {"chr1", 20, ".", "ACGT", "A"}, // deletion [20, 23)
        {"chr1", 21, ".", "C", "T"},    // inside the deletion: dropped
        {"chr1", 5, ".", "A", "G"},     // SNP, sorts first
        {"chr2", 7, ".", "A", "T"},     // other chromosome: ignored
        {"chr1", 8, ".", "T", "T"},     // no-op: dropped
        {"chr1", 1, ".", "A", "GA"},    // insertion before base 0
        {"chr1", 1, ".", "A", "TA"},    // same point: dropped
    };
    uint64_t dropped = 0;
    const auto kept = canonicalizeSet(records, "chr1", 100, &dropped);
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].pos, 0u);
    EXPECT_EQ(kept[0].alt, "G");
    EXPECT_EQ(kept[1].pos, 4u);
    EXPECT_EQ(kept[2].pos, 20u);
    EXPECT_EQ(dropped, 3u);
    // The kept set builds: no two insertions share a point.
    const GenomeGraph graph = buildGraph(std::string(100, 'A'), kept);
    EXPECT_TRUE(graph.isTopologicallySorted());
}

TEST(Variants, GroupedRecordsCanonicalizeLikeTheFilteringScan)
{
    // Interleaved chromosomes, overlaps and out-of-range records inside
    // each group, and records of chr9, which the FASTA does not hold.
    const std::vector<io::VcfRecord> records = {
        {"chr2", 30, ".", "A", "G"},  {"chr1", 20, ".", "ACGT", "A"},
        {"chr9", 4, ".", "C", "T"},   {"chr2", 10, ".", "AC", "A"},
        {"chr1", 21, ".", "C", "T"},  {"chr2", 11, ".", "C", "G"},
        {"chr1", 5, ".", "A", "G"},   {"chr3", 2, ".", "G", "GTT"},
        {"chr2", 10, ".", "A", "T"},  {"chr1", 99, ".", "AC", "A"},
        {"chr9", 1, ".", "A", "G"},   {"chr1", 8, ".", "T", "T"},
        {"chr3", 2, ".", "G", "GA"},  {"chr2", 40, ".", "TT", "T"},
    };
    const VcfByChrom groups(records);
    for (const std::string chrom : {"chr1", "chr2", "chr3", "chr4"}) {
        SCOPED_TRACE(chrom);
        uint64_t dropped_scan = 0;
        uint64_t dropped_grouped = 0;
        const auto scanned =
            canonicalizeSet(records, chrom, 100, &dropped_scan);
        const auto grouped = canonicalizeSet(groups.records(chrom), 100,
                                             &dropped_grouped);
        EXPECT_EQ(grouped, scanned);
        EXPECT_EQ(dropped_grouped, dropped_scan);
    }
    // A group keeps file order; a chromosome without records has none.
    const auto chr2 = groups.records("chr2");
    ASSERT_EQ(chr2.size(), 5u);
    EXPECT_EQ(chr2[0], &records[0]);
    EXPECT_EQ(chr2[4], &records[13]);
    EXPECT_EQ(groups.records("chr9").size(), 2u);
    EXPECT_TRUE(groups.records("chr4").empty());
    EXPECT_TRUE(canonicalizeSet(groups.records("chr4"), 100).empty());
}

TEST(Variants, VcfRoundTripThroughCanonicalForm)
{
    const std::string reference = "ACGTACGTACGT";
    const Variant del{4, "AC", ""};
    const io::VcfRecord record = toVcfRecord(del, "chr1", reference);
    EXPECT_EQ(canonicalize(record), del);
    const Variant ins{4, "", "GGG"};
    EXPECT_EQ(canonicalize(toVcfRecord(ins, "chr1", reference)), ins);
}

TEST(GraphBuilder, ChainWithoutVariants)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {});
    EXPECT_EQ(g.numNodes(), 1u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_EQ(g.totalSeqLen(), 8u);
    EXPECT_EQ(g.nodeSeq(0), "ACGTACGT");
    EXPECT_TRUE(g.isTopologicallySorted());
}

TEST(GraphBuilder, MaxNodeLenSplitsBackbone)
{
    BuildOptions options;
    options.maxNodeLen = 3;
    const GenomeGraph g = buildGraph("ACGTACGT", {}, options);
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.nodeSeq(0), "ACG");
    EXPECT_EQ(g.nodeSeq(2), "GT");
    EXPECT_TRUE(g.isTopologicallySorted());
}

TEST(GraphBuilder, SnpCreatesBranch)
{
    // Fig. 1-style: reference ACGTACGT with a SNP T->G at position 3.
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    // Nodes: ACG | T | G(alt) | ACGT.
    ASSERT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.nodeSeq(0), "ACG");
    EXPECT_EQ(g.nodeSeq(1), "T");
    EXPECT_EQ(g.nodeSeq(2), "G");
    EXPECT_EQ(g.nodeSeq(3), "ACGT");
    EXPECT_TRUE(g.node(2).isAlt);
    // Edges: 0->1, 0->2, 1->3, 2->3.
    EXPECT_EQ(g.numEdges(), 4u);
    const auto succ0 = g.successors(0);
    EXPECT_EQ(std::vector<NodeId>(succ0.begin(), succ0.end()),
              (std::vector<NodeId>{1, 2}));
    EXPECT_TRUE(g.isTopologicallySorted());
}

TEST(GraphBuilder, DeletionCreatesBypassEdge)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{2, "GT", ""}});
    // Nodes: AC | GT | ACGT; edges AC->GT, GT->ACGT, AC->ACGT.
    ASSERT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    const auto succ0 = g.successors(0);
    EXPECT_EQ(std::vector<NodeId>(succ0.begin(), succ0.end()),
              (std::vector<NodeId>{1, 2}));
}

TEST(GraphBuilder, InsertionCreatesOptionalNode)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{4, "", "TTT"}});
    // Nodes: ACGT | TTT(ins) | ACGT; edges 0->1, 1->2, 0->2.
    ASSERT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.nodeSeq(1), "TTT");
    EXPECT_TRUE(g.node(1).isAlt);
    EXPECT_EQ(g.numEdges(), 3u);
}

TEST(GraphBuilder, AdjacentVariantsCrossConnect)
{
    // SNPs at positions 2 and 3: four paths through the middle.
    const GenomeGraph g =
        buildGraph("ACGTAC", {{2, "G", "A"}, {3, "T", "C"}});
    // Nodes: AC | G | A | T | C | AC.
    ASSERT_EQ(g.numNodes(), 6u);
    EXPECT_EQ(g.numEdges(), 8u);
    EXPECT_TRUE(g.isTopologicallySorted());
}

TEST(GraphBuilder, RejectsBadInputs)
{
    EXPECT_THROW(buildGraph("", {}), InputError);
    EXPECT_THROW(buildGraph("ACGT", {{2, "GTX", ""}}), InputError);
    // Unsorted variants.
    EXPECT_THROW(buildGraph("ACGTACGT", {{5, "C", "T"}, {1, "C", "G"}}),
                 InputError);
    // Overlapping variants.
    EXPECT_THROW(buildGraph("ACGTACGT", {{1, "CGT", ""}, {2, "G", "C"}}),
                 InputError);
}

TEST(GenomeGraph, Fig5MemoryLayoutAccounting)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    EXPECT_EQ(g.nodeTableBytes(), g.numNodes() * 32);
    EXPECT_EQ(g.edgeTableBytes(), g.numEdges() * 4);
    EXPECT_EQ(g.charTableBytes(), (g.totalSeqLen() * 2 + 7) / 8);
    EXPECT_EQ(g.totalBytes(),
              g.nodeTableBytes() + g.charTableBytes() + g.edgeTableBytes());
}

TEST(GenomeGraph, LinearOffsetsAndLookup)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    // Offsets: 0 (ACG), 3 (T), 4 (G alt), 5 (ACGT).
    EXPECT_EQ(g.node(0).linearOffset, 0u);
    EXPECT_EQ(g.node(1).linearOffset, 3u);
    EXPECT_EQ(g.node(2).linearOffset, 4u);
    EXPECT_EQ(g.node(3).linearOffset, 5u);
    EXPECT_EQ(g.nodeAtLinear(0), 0u);
    EXPECT_EQ(g.nodeAtLinear(2), 0u);
    EXPECT_EQ(g.nodeAtLinear(3), 1u);
    EXPECT_EQ(g.nodeAtLinear(4), 2u);
    EXPECT_EQ(g.nodeAtLinear(8), 3u);
}

TEST(GenomeGraph, TopologicalSortRelabels)
{
    // Build a deliberately unsorted graph: 0 -> 2, 2 -> 1 is invalid
    // (edge to lower id), so IDs must be relabeled.
    GraphBuilder builder;
    const NodeId a = builder.addNode("AA");
    const NodeId b = builder.addNode("CC");
    const NodeId c = builder.addNode("GG");
    builder.addEdge(a, c);
    builder.addEdge(c, b);
    const GenomeGraph g = std::move(builder).build();
    EXPECT_FALSE(g.isTopologicallySorted());
    const GenomeGraph sorted = g.topologicallySorted();
    EXPECT_TRUE(sorted.isTopologicallySorted());
    EXPECT_EQ(sorted.numNodes(), 3u);
    EXPECT_EQ(sorted.numEdges(), 2u);
    EXPECT_EQ(sorted.nodeSeq(0), "AA");
    EXPECT_EQ(sorted.nodeSeq(1), "GG");
    EXPECT_EQ(sorted.nodeSeq(2), "CC");
}

TEST(GenomeGraph, TopologicalSortRejectsCycles)
{
    GraphBuilder builder;
    const NodeId a = builder.addNode("AA");
    const NodeId b = builder.addNode("CC");
    builder.addEdge(a, b);
    builder.addEdge(b, a);
    const GenomeGraph g = std::move(builder).build();
    EXPECT_THROW(g.topologicallySorted(), InputError);
}

/** Structural equality: sequences and edge lists, node by node. */
void
expectSameStructure(const GenomeGraph &a, const GenomeGraph &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId id = 0; id < a.numNodes(); ++id) {
        EXPECT_EQ(a.nodeSeq(id), b.nodeSeq(id));
        const auto s1 = a.successors(id);
        const auto s2 = b.successors(id);
        EXPECT_EQ(std::vector<NodeId>(s1.begin(), s1.end()),
                  std::vector<NodeId>(s2.begin(), s2.end()));
    }
}

/** Full equality: structure plus the path-space metadata. */
void
expectSameGraph(const GenomeGraph &a, const GenomeGraph &b)
{
    expectSameStructure(a, b);
    for (NodeId id = 0; id < a.numNodes(); ++id) {
        EXPECT_EQ(a.node(id).refPos, b.node(id).refPos) << "node " << id;
        EXPECT_EQ(a.node(id).isAlt, b.node(id).isAlt) << "node " << id;
    }
}

TEST(GenomeGraph, GfaRoundTrip)
{
    const GenomeGraph g =
        buildGraph("ACGTACGT", {{3, "T", "G"}, {6, "", "AA"}});
    const GenomeGraph back = GenomeGraph::fromGfa(g.toGfa());
    expectSameStructure(g, back);
}

TEST(GenomeGraph, GfaRoundTripWithPathPreservesMetadata)
{
    // The full round-trip property: toGfa -> writeGfa -> readGfa ->
    // fromGfa reproduces the original graph including refPos/isAlt,
    // because the P line carries the reference-path coordinates.
    // Substitution, insertion and deletion all participate.
    const GenomeGraph g = buildGraph(
        "ACGTACGTACGTACGT",
        {{3, "T", "G"}, {6, "", "AA"}, {10, "GT", ""}});
    std::ostringstream out;
    io::writeGfa(out, g.toGfa("chr1"));
    std::istringstream in(out.str());
    const GenomeGraph back = GenomeGraph::fromGfa(io::readGfa(in));
    expectSameGraph(g, back);
}

TEST(GenomeGraph, GfaRoundTripLinearChain)
{
    // The sequence-to-sequence special case: a chain graph with no ALT
    // nodes round-trips with every node on the path.
    const GenomeGraph g = buildGraph("ACGTACGTACGTACGT", {}, {4});
    const GenomeGraph back = GenomeGraph::fromGfa(g.toGfa("seq"));
    expectSameGraph(g, back);
    EXPECT_EQ(back.pathLength(), 16u);
}

/**
 * Builds @p doc with node IDs assigned in file order, as fromGfa did
 * before it sorted: a shuffled document yields an unsorted graph.
 */
GenomeGraph
buildInFileOrder(const io::GfaDocument &doc)
{
    GraphBuilder builder;
    std::map<std::string, NodeId> ids;
    for (const auto &segment : doc.segments)
        ids[segment.name] = builder.addNode(segment.seq);
    for (const auto &link : doc.links)
        builder.addEdge(ids.at(link.from), ids.at(link.to));
    return std::move(builder).build();
}

/** A small variant graph whose segments are listed in reverse order. */
io::GfaDocument
reversedGfa()
{
    const GenomeGraph g =
        buildGraph("ACGTACGTACGT", {{3, "T", "G"}, {7, "", "AA"}});
    io::GfaDocument doc = g.toGfa("chr1");
    std::reverse(doc.segments.begin(), doc.segments.end());
    std::reverse(doc.links.begin(), doc.links.end());
    return doc;
}

TEST(GenomeGraph, FromGfaSortsShuffledSegments)
{
    // The regression the unsorted-fromGfa bug caused: building the
    // document in shuffled segment order used to assign node IDs in
    // file order, yielding a graph that violates the node-ID-equals-
    // topological-rank invariant MinSeed and LinearizedGraph rely on.
    const GenomeGraph g =
        buildGraph("ACGTACGTACGT", {{3, "T", "G"}, {7, "", "AA"}});
    const io::GfaDocument doc = g.toGfa("chr1");
    const io::GfaDocument shuffled = reversedGfa();

    // Pre-fix behaviour, reproduced via the builder: file order is
    // not a topological order, so the invariant would be violated.
    EXPECT_FALSE(buildInFileOrder(shuffled).isTopologicallySorted());

    // Post-fix: fromGfa canonically sorts, so the shuffled document
    // produces the exact same graph as the in-order one — and both
    // reproduce the FASTA+VCF-built original.
    const GenomeGraph from_sorted = GenomeGraph::fromGfa(doc);
    const GenomeGraph from_shuffled = GenomeGraph::fromGfa(shuffled);
    EXPECT_TRUE(from_shuffled.isTopologicallySorted());
    expectSameGraph(from_sorted, from_shuffled);
    expectSameGraph(g, from_shuffled);
}

TEST(GenomeGraph, FromGfaRejectsCyclicLinks)
{
    io::GfaDocument doc;
    doc.segments = {{"a", "AC"}, {"b", "GG"}, {"c", "TT"}};
    doc.links = {{"a", "b"}, {"b", "c"}, {"c", "a"}};
    try {
        GenomeGraph::fromGfa(doc);
        FAIL() << "cyclic GFA was accepted";
    } catch (const InputError &error) {
        EXPECT_NE(std::string(error.what()).find("cyclic"),
                  std::string::npos);
    }
}

TEST(GenomeGraph, FromGfaRejectsUnlinkedPathSteps)
{
    io::GfaDocument doc;
    doc.segments = {{"a", "AC"}, {"b", "GG"}, {"c", "TT"}};
    doc.links = {{"a", "b"}, {"b", "c"}};
    doc.paths = {{"chr", {"a", "c"}}}; // a -> c has no link
    EXPECT_THROW(GenomeGraph::fromGfa(doc), InputError);
}

TEST(GenomeGraph, FromGfaPathDefinesCoordinates)
{
    // Diamond: ref = AAA -> CC -> TTTT, alt GG parallel to CC.
    io::GfaDocument doc;
    doc.segments = {{"s1", "AAA"}, {"s2", "CC"}, {"alt", "GG"},
                    {"s3", "TTTT"}};
    doc.links = {{"s1", "s2"}, {"s1", "alt"}, {"alt", "s3"},
                 {"s2", "s3"}};
    doc.paths = {{"chr9", {"s1", "s2", "s3"}}};
    const GenomeGraph g = GenomeGraph::fromGfa(doc);
    ASSERT_EQ(g.numNodes(), 4u);
    // Canonical order: s1 first, s3 last; s2/alt tie-break in between.
    EXPECT_EQ(g.nodeSeq(0), "AAA");
    EXPECT_EQ(g.node(0).refPos, 0u);
    EXPECT_FALSE(g.node(0).isAlt);
    // The off-path alt projects to the divergence point (position 3).
    for (NodeId id = 1; id <= 2; ++id) {
        if (g.node(id).isAlt) {
            EXPECT_EQ(g.nodeSeq(id), "GG");
            EXPECT_EQ(g.node(id).refPos, 3u);
        } else {
            EXPECT_EQ(g.nodeSeq(id), "CC");
            EXPECT_EQ(g.node(id).refPos, 3u);
        }
    }
    EXPECT_EQ(g.nodeSeq(3), "TTTT");
    EXPECT_EQ(g.node(3).refPos, 5u);
    EXPECT_FALSE(g.node(3).isAlt);
    // Path space: 9 reference bases vs 11 concatenated.
    EXPECT_EQ(g.pathLength(), 9u);
    EXPECT_EQ(g.totalSeqLen(), 11u);
}

TEST(GenomeGraph, HaplotypeWalksDoNotDefineReferenceCoordinates)
{
    // Diamond with a reference path AND a haplotype walk through the
    // alt branch (the vg/minigraph export shape: P for the reference,
    // W per sample). The walk revisits covered segments, so it must
    // not mark the alt node on-path or shift any refPos.
    io::GfaDocument doc;
    doc.segments = {{"s1", "AAA"}, {"s2", "CC"}, {"alt", "GGGGG"},
                    {"s3", "TTTT"}};
    doc.links = {{"s1", "s2"}, {"s1", "alt"}, {"alt", "s3"},
                 {"s2", "s3"}};
    doc.paths = {{"chr9", {"s1", "s2", "s3"}},
                 {"sample1#1#chr9", {"s1", "alt", "s3"}}};
    const GenomeGraph g = GenomeGraph::fromGfa(doc);
    ASSERT_EQ(g.numNodes(), 4u);
    int alts = 0;
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        if (g.nodeSeq(id) == "GGGGG") {
            ++alts;
            EXPECT_TRUE(g.node(id).isAlt);
            // Projected to the divergence point, not to the walk's
            // own cumulative offset.
            EXPECT_EQ(g.node(id).refPos, 3u);
        }
        if (g.nodeSeq(id) == "TTTT") {
            EXPECT_FALSE(g.node(id).isAlt);
            EXPECT_EQ(g.node(id).refPos, 5u);
        }
    }
    EXPECT_EQ(alts, 1);
    // pathLength counts only the reference path (9), never the
    // haplotype branch (which would make it 14).
    EXPECT_EQ(g.pathLength(), 9u);

    // Even a walk covering ONLY the alt branch (no shared backbone
    // segment) is a haplotype walk of the same component, not a
    // second reference path.
    doc.paths = {{"chr9", {"s1", "s2", "s3"}}, {"altwalk", {"alt"}}};
    const GenomeGraph g2 = GenomeGraph::fromGfa(doc);
    EXPECT_EQ(g2.pathLength(), 9u);
    for (NodeId id = 0; id < g2.numNodes(); ++id) {
        if (g2.nodeSeq(id) == "GGGGG") {
            EXPECT_TRUE(g2.node(id).isAlt);
            EXPECT_EQ(g2.node(id).refPos, 3u);
        }
    }
}

TEST(GenomeGraph, PathProjection)
{
    const GenomeGraph g =
        buildGraph("ACGTACGT", {{3, "T", "G"}, {6, "", "AA"}});
    EXPECT_EQ(g.pathLength(), 8u);
    // Every on-path position maps to its reference coordinate; alt
    // positions map to their divergence point.
    for (uint64_t pos = 0; pos < g.totalSeqLen(); ++pos) {
        const NodeId id = g.nodeAtLinear(pos);
        const auto &node = g.node(id);
        if (node.isAlt) {
            EXPECT_EQ(g.pathProject(pos), node.refPos);
        } else {
            EXPECT_EQ(g.pathProject(pos),
                      node.refPos + (pos - node.linearOffset));
        }
    }
    // The projection is monotone non-decreasing along the
    // concatenated coordinate (alt bubbles plateau).
    uint64_t prev = 0;
    for (uint64_t pos = 0; pos < g.totalSeqLen(); ++pos) {
        const uint64_t proj = g.pathProject(pos);
        EXPECT_GE(proj, prev);
        prev = proj;
    }
}

TEST(Linearize, ChainGraph)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {});
    const LinearizedGraph lin = linearizeWhole(g);
    EXPECT_EQ(lin.size(), 8);
    EXPECT_EQ(lin.toString(), "ACGTACGT");
    for (int i = 0; i < 7; ++i) {
        const auto deltas = lin.successorDeltas(i);
        ASSERT_EQ(deltas.size(), 1u);
        EXPECT_EQ(deltas[0], 1);
    }
    EXPECT_TRUE(lin.successorDeltas(7).empty());
    EXPECT_EQ(lin.maxDelta(), 1);
}

TEST(Linearize, SnpProducesHopOfTwo)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    const LinearizedGraph lin = linearizeWhole(g);
    // Layout: A C G | T | G | A C G T  (positions 0-8).
    EXPECT_EQ(lin.toString(), "ACGTGACGT");
    // Position 2 (last of ACG) hops to 3 (T, delta 1) and 4 (alt G,
    // delta 2).
    const auto deltas = lin.successorDeltas(2);
    EXPECT_EQ(std::vector<uint16_t>(deltas.begin(), deltas.end()),
              (std::vector<uint16_t>{1, 2}));
    // T at 3 hops over the alt node to 5 (delta 2); alt G at 4 -> 5.
    EXPECT_EQ(lin.successorDeltas(3)[0], 2);
    EXPECT_EQ(lin.successorDeltas(4)[0], 1);
    EXPECT_EQ(lin.maxDelta(), 2);
    EXPECT_EQ(lin.origin(3).node, 1u);
    EXPECT_EQ(lin.origin(8).node, 3u);
    EXPECT_EQ(lin.origin(8).offset, 3u);
}

TEST(Linearize, RangeClipsNodesAndHops)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    // Full layout ACG T G ACGT; take coordinates [1, 6] = "CGTGAC".
    const LinearizedGraph lin = linearizeRange(g, 1, 6);
    EXPECT_EQ(lin.toString(), "CGTGAC");
    EXPECT_EQ(lin.linearStart(), 1u);
    // Clipped at both ends: last char has no successors.
    EXPECT_TRUE(lin.successorDeltas(5).empty());
    // Hop structure preserved inside: position 1 (G of ACG) -> T, altG.
    const auto deltas = lin.successorDeltas(1);
    EXPECT_EQ(std::vector<uint16_t>(deltas.begin(), deltas.end()),
              (std::vector<uint16_t>{1, 2}));
}

TEST(Linearize, HopLimitDropsLongHops)
{
    // A 6-char deletion creates a hop of length 7.
    const GenomeGraph g = buildGraph("ACGTACGTACGT", {{2, "GTACGT", ""}});
    const LinearizedGraph unlimited = linearizeWhole(g, kUnlimitedHops);
    EXPECT_EQ(unlimited.maxDelta(), 7);
    EXPECT_EQ(unlimited.droppedHops(), 0u);
    const LinearizedGraph limited = linearizeWhole(g, 6);
    EXPECT_EQ(limited.maxDelta(), 1);
    EXPECT_EQ(limited.droppedHops(), 1u);
}

TEST(Linearize, WindowExtraction)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    const LinearizedGraph lin = linearizeWhole(g);
    const LinearizedGraph window = lin.window(2, 4); // "GTGA"
    EXPECT_EQ(window.toString(), "GTGA");
    EXPECT_EQ(window.linearStart(), 2u);
    // Hops leaving the window are clipped.
    for (int i = 0; i < window.size(); ++i) {
        for (const auto delta : window.successorDeltas(i))
            EXPECT_LT(i + delta, window.size());
    }
}

TEST(Linearize, DirectConstructionValidates)
{
    LinearizedGraph lin;
    lin.pushChar('A', {1});
    lin.pushChar('C', {});
    lin.finalize();
    EXPECT_EQ(lin.size(), 2);
    LinearizedGraph bad;
    bad.pushChar('A', {5});
    EXPECT_THROW(bad.finalize(), InputError);
    LinearizedGraph bad_char;
    EXPECT_THROW(bad_char.pushChar('N', {}), InputError);
}

TEST(Linearize, WindowOfWindowComposes)
{
    // Property: window(a).window(b, n) == window(a+b, n).
    Rng rng(41);
    std::string ref;
    for (int i = 0; i < 500; ++i)
        ref.push_back(rng.nextBase());
    std::vector<Variant> variants;
    for (uint64_t pos = 20; pos + 20 < ref.size(); pos += 60) {
        char alt = rng.nextBase();
        while (alt == ref[pos])
            alt = rng.nextBase();
        variants.push_back(
            {pos, std::string(1, ref[pos]), std::string(1, alt)});
    }
    const GenomeGraph g = buildGraph(ref, variants);
    const LinearizedGraph whole = linearizeWhole(g);
    for (int trial = 0; trial < 20; ++trial) {
        const int a = static_cast<int>(rng.nextBelow(whole.size() / 2));
        const int outer_len = static_cast<int>(
            1 + rng.nextBelow(whole.size() - a));
        const auto outer = whole.window(a, outer_len);
        const int b = static_cast<int>(rng.nextBelow(outer_len));
        const int inner_len =
            static_cast<int>(1 + rng.nextBelow(outer_len - b));
        const auto nested = outer.window(b, inner_len);
        const auto direct = whole.window(a + b, inner_len);
        ASSERT_EQ(nested.size(), direct.size());
        EXPECT_EQ(nested.toString(), direct.toString());
        EXPECT_EQ(nested.linearStart(), direct.linearStart());
        for (int pos = 0; pos < nested.size(); ++pos) {
            const auto d1 = nested.successorDeltas(pos);
            const auto d2 = direct.successorDeltas(pos);
            ASSERT_EQ(std::vector<uint16_t>(d1.begin(), d1.end()),
                      std::vector<uint16_t>(d2.begin(), d2.end()))
                << "pos " << pos;
        }
    }
}

TEST(Linearize, ViewMatchesWindowCopy)
{
    // Property: LinearizedGraphView(whole, a, n) agrees with the
    // copying window(a, n) on every observable — the zero-copy slicing
    // alignWindowed relies on.
    Rng rng(47);
    std::string ref;
    for (int i = 0; i < 400; ++i)
        ref.push_back(rng.nextBase());
    std::vector<Variant> variants;
    for (uint64_t pos = 15; pos + 20 < ref.size(); pos += 45) {
        char alt = rng.nextBase();
        while (alt == ref[pos])
            alt = rng.nextBase();
        variants.push_back(
            {pos, std::string(1, ref[pos]), std::string(1, alt)});
    }
    const GenomeGraph g = buildGraph(ref, variants);
    const LinearizedGraph whole = linearizeWhole(g);
    for (int trial = 0; trial < 30; ++trial) {
        const int a = static_cast<int>(rng.nextBelow(whole.size() - 1));
        const int len =
            static_cast<int>(1 + rng.nextBelow(whole.size() - a));
        const LinearizedGraph copy = whole.window(a, len);
        const LinearizedGraphView view(whole, a, len);
        ASSERT_EQ(view.size(), copy.size());
        EXPECT_EQ(view.linearStart(), copy.linearStart());
        for (int pos = 0; pos < copy.size(); ++pos) {
            EXPECT_EQ(view.code(pos), copy.code(pos));
            EXPECT_EQ(view.origin(pos), copy.origin(pos));
            const auto vd = view.successorDeltas(pos);
            const auto cd = copy.successorDeltas(pos);
            ASSERT_EQ(std::vector<uint16_t>(vd.begin(), vd.end()),
                      std::vector<uint16_t>(cd.begin(), cd.end()))
                << "a=" << a << " len=" << len << " pos=" << pos;
        }
        // Sub-views compose like window-of-window.
        const int b = static_cast<int>(rng.nextBelow(len));
        const int inner = static_cast<int>(1 + rng.nextBelow(len - b));
        const LinearizedGraphView nested = view.window(b, inner);
        const LinearizedGraph nested_copy = copy.window(b, inner);
        ASSERT_EQ(nested.size(), nested_copy.size());
        EXPECT_EQ(nested.linearStart(), nested_copy.linearStart());
        for (int pos = 0; pos < nested.size(); ++pos) {
            const auto vd = nested.successorDeltas(pos);
            const auto cd = nested_copy.successorDeltas(pos);
            ASSERT_EQ(std::vector<uint16_t>(vd.begin(), vd.end()),
                      std::vector<uint16_t>(cd.begin(), cd.end()));
        }
    }
}

TEST(Linearize, BufferReuseMatchesReturningOverload)
{
    // linearizeRange into a reused LinearizedGraph must equal a fresh
    // one, for every range and after arbitrary previous contents.
    const GenomeGraph g =
        buildGraph("ACGTACGTACGTACGT", {{3, "T", "G"}, {9, "GT", ""}});
    LinearizedGraph reused;
    for (uint64_t a = 0; a < g.totalSeqLen(); a += 2) {
        const uint64_t b = std::min(a + 9, g.totalSeqLen() - 1);
        const LinearizedGraph fresh = linearizeRange(g, a, b, 6);
        linearizeRange(g, a, b, 6, reused);
        ASSERT_EQ(reused.size(), fresh.size());
        EXPECT_EQ(reused.toString(), fresh.toString());
        EXPECT_EQ(reused.linearStart(), fresh.linearStart());
        EXPECT_EQ(reused.droppedHops(), fresh.droppedHops());
        EXPECT_EQ(reused.maxDelta(), fresh.maxDelta());
        for (int pos = 0; pos < fresh.size(); ++pos) {
            EXPECT_EQ(reused.origin(pos), fresh.origin(pos));
            const auto d1 = reused.successorDeltas(pos);
            const auto d2 = fresh.successorDeltas(pos);
            ASSERT_EQ(std::vector<uint16_t>(d1.begin(), d1.end()),
                      std::vector<uint16_t>(d2.begin(), d2.end()));
        }
    }
}

TEST(GenomeGraph, NodeAtLinearRandomProperty)
{
    Rng rng(43);
    GraphBuilder builder;
    std::vector<uint64_t> starts;
    uint64_t offset = 0;
    for (int i = 0; i < 60; ++i) {
        const auto len = 1 + rng.nextBelow(40);
        std::string seq;
        for (uint64_t c = 0; c < len; ++c)
            seq.push_back(rng.nextBase());
        builder.addNode(seq);
        starts.push_back(offset);
        offset += len;
    }
    const GenomeGraph g = std::move(builder).build();
    for (int trial = 0; trial < 200; ++trial) {
        const uint64_t pos = rng.nextBelow(g.totalSeqLen());
        const NodeId node = g.nodeAtLinear(pos);
        EXPECT_LE(g.node(node).linearOffset, pos);
        EXPECT_LT(pos, g.node(node).linearOffset + g.node(node).seqLen);
    }
}

TEST(Linearize, RegionEqualsWholeWindow)
{
    // linearizeRange(g, a, b) must equal linearizeWhole(g).window(a, ..)
    // because concatenated coordinates map 1:1 to positions.
    const GenomeGraph g =
        buildGraph("ACGTACGTACGTACGT", {{3, "T", "G"}, {9, "GT", ""}});
    const LinearizedGraph whole = linearizeWhole(g);
    for (uint64_t a = 0; a < g.totalSeqLen(); a += 3) {
        const uint64_t b =
            std::min(a + 7, g.totalSeqLen() - 1);
        const auto range = linearizeRange(g, a, b);
        const auto window =
            whole.window(static_cast<int>(a),
                         static_cast<int>(b - a + 1));
        EXPECT_EQ(range.toString(), window.toString());
        for (int pos = 0; pos < range.size(); ++pos) {
            const auto d1 = range.successorDeltas(pos);
            const auto d2 = window.successorDeltas(pos);
            EXPECT_EQ(std::vector<uint16_t>(d1.begin(), d1.end()),
                      std::vector<uint16_t>(d2.begin(), d2.end()))
                << "a=" << a << " pos=" << pos;
        }
    }
}

TEST(Linearize, RejectsUnsortedEdgeInsideRange)
{
    const GenomeGraph unsorted = buildInFileOrder(reversedGfa());
    ASSERT_FALSE(unsorted.isTopologicallySorted());
    EXPECT_THROW(linearizeWhole(unsorted), InputError);
    // Node 0 is the original sink: a region holding only it uses no
    // unsorted edge, so it still linearizes.
    const auto sink =
        linearizeRange(unsorted, 0, unsorted.node(0).seqLen - 1);
    EXPECT_EQ(sink.toString(), unsorted.nodeSeq(0));
}

TEST(Linearize, MapperRejectsUnsortedGraphUpFront)
{
    const GenomeGraph unsorted = buildInFileOrder(reversedGfa());
    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    const auto index =
        index::MinimizerIndex::build(unsorted, index_config);
    EXPECT_THROW(core::SegramMapper(unsorted, index), InputError);
}

TEST(HopHistogram, CountsDistances)
{
    const GenomeGraph g = buildGraph("ACGTACGT", {{3, "T", "G"}});
    const auto histogram = hopLengthHistogram(g, 16);
    // Edges: 0->1 (d1), 0->2 (d2), 1->3 (d2), 2->3 (d1).
    EXPECT_EQ(histogram[1], 2u);
    EXPECT_EQ(histogram[2], 2u);
    EXPECT_DOUBLE_EQ(hopCoverage(histogram, 1), 0.5);
    EXPECT_DOUBLE_EQ(hopCoverage(histogram, 2), 1.0);
}

TEST(HopHistogram, SnpsAndSmallIndelsStayWithinPaperLimit)
{
    // Random small-variant graph: hop limit 12 must cover >99% of hops
    // (the Fig. 13 claim) because variants are SNPs and small indels.
    Rng rng(17);
    std::string ref;
    for (int i = 0; i < 20000; ++i)
        ref.push_back(rng.nextBase());
    std::vector<Variant> variants;
    for (uint64_t pos = 50; pos + 20 < ref.size();
         pos += 100 + rng.nextBelow(100)) {
        const double which = rng.nextDouble();
        if (which < 0.9) {
            char alt = rng.nextBase();
            while (alt == ref[pos])
                alt = rng.nextBase();
            variants.push_back({pos, std::string(1, ref[pos]),
                                std::string(1, alt)});
        } else if (which < 0.95) {
            variants.push_back({pos, ref.substr(pos, 3), ""});
        } else {
            variants.push_back({pos, "", "TTT"});
        }
    }
    const GenomeGraph g = buildGraph(ref, variants);
    const auto histogram = hopLengthHistogram(g);
    EXPECT_GT(hopCoverage(histogram, kDefaultHopLimit), 0.99);
}

} // namespace
} // namespace segram::graph
