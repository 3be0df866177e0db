/**
 * @file
 * Tests for whole-document GFA import (graph::importGfa) and the
 * GFA-backed pre-processing route (PreprocessedReference::buildFromGfa):
 * component splitting, chromosome naming, shuffle invariance, and the
 * headline contract — a GFA exported from a FASTA+VCF-built reference
 * maps bit-identically to the original.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/graph/genome_graph.h"
#include "src/graph/gfa_import.h"
#include "src/graph/graph_builder.h"
#include "src/io/gfa.h"
#include "src/sim/dataset.h"
#include "src/sim/read_sim.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram
{
namespace
{

using graph::GenomeGraph;
using graph::importGfa;
using graph::NodeId;

/** Two-chromosome document the way `segram construct` writes it:
 *  disjoint components, prefixed segments, one P line each. */
io::GfaDocument
twoChromosomeDoc()
{
    io::GfaDocument doc;
    doc.segments = {{"chrA.1", "ACGTACGT"},
                    {"chrA.2", "T"},
                    {"chrA.3", "G"},
                    {"chrA.4", "ACGT"},
                    {"chrB.1", "TTTTCCCC"},
                    {"chrB.2", "GGGG"}};
    doc.links = {{"chrA.1", "chrA.2"},
                 {"chrA.1", "chrA.3"},
                 {"chrA.2", "chrA.4"},
                 {"chrA.3", "chrA.4"},
                 {"chrB.1", "chrB.2"}};
    doc.paths = {{"chrA", {"chrA.1", "chrA.2", "chrA.4"}},
                 {"chrB", {"chrB.1", "chrB.2"}}};
    return doc;
}

TEST(ImportGfa, SplitsComponentsAndNamesByPath)
{
    const auto chromosomes = importGfa(twoChromosomeDoc());
    ASSERT_EQ(chromosomes.size(), 2u);
    EXPECT_EQ(chromosomes[0].name, "chrA");
    EXPECT_EQ(chromosomes[0].graph.numNodes(), 4u);
    EXPECT_EQ(chromosomes[0].graph.numEdges(), 4u);
    EXPECT_EQ(chromosomes[0].graph.pathLength(), 13u);
    EXPECT_TRUE(chromosomes[0].graph.isTopologicallySorted());
    EXPECT_EQ(chromosomes[1].name, "chrB");
    EXPECT_EQ(chromosomes[1].graph.numNodes(), 2u);
    EXPECT_EQ(chromosomes[1].graph.numEdges(), 1u);
    EXPECT_TRUE(chromosomes[1].graph.isTopologicallySorted());
}

TEST(ImportGfa, PathlessComponentNamedByFirstSegment)
{
    io::GfaDocument doc;
    doc.segments = {{"s1", "ACGTACGT"}, {"s2", "TTTT"}};
    doc.links = {{"s1", "s2"}};
    const auto chromosomes = importGfa(doc);
    ASSERT_EQ(chromosomes.size(), 1u);
    EXPECT_EQ(chromosomes[0].name, "s1");
    // No path metadata: nothing is ALT, the whole graph is "path",
    // and path projection degenerates to the identity (refPos =
    // linearOffset) — not a per-segment reset to zero.
    const GenomeGraph &g = chromosomes[0].graph;
    EXPECT_EQ(g.pathLength(), g.totalSeqLen());
    for (uint64_t pos = 0; pos < g.totalSeqLen(); ++pos)
        EXPECT_EQ(g.pathProject(pos), pos);
    EXPECT_EQ(g.node(1).refPos, 8u); // s2 starts after s1's 8 bases
}

TEST(ImportGfa, ShuffledSegmentOrderImportsIdentically)
{
    const io::GfaDocument doc = twoChromosomeDoc();
    io::GfaDocument shuffled = doc;
    std::reverse(shuffled.segments.begin(), shuffled.segments.end());
    std::reverse(shuffled.links.begin(), shuffled.links.end());
    const auto a = importGfa(doc);
    const auto b = importGfa(shuffled);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
        EXPECT_EQ(a[c].name, b[c].name);
        const GenomeGraph &ga = a[c].graph;
        const GenomeGraph &gb = b[c].graph;
        ASSERT_EQ(ga.numNodes(), gb.numNodes());
        ASSERT_EQ(ga.numEdges(), gb.numEdges());
        for (NodeId id = 0; id < ga.numNodes(); ++id) {
            EXPECT_EQ(ga.nodeSeq(id), gb.nodeSeq(id));
            EXPECT_EQ(ga.node(id).refPos, gb.node(id).refPos);
            EXPECT_EQ(ga.node(id).isAlt, gb.node(id).isAlt);
            const auto sa = ga.successors(id);
            const auto sb = gb.successors(id);
            EXPECT_EQ(std::vector<NodeId>(sa.begin(), sa.end()),
                      std::vector<NodeId>(sb.begin(), sb.end()));
        }
    }
}

TEST(ImportGfa, RejectsEmptyAndDuplicateNames)
{
    EXPECT_THROW(importGfa({}), InputError);
    // Two pathless components whose first segments share a name is
    // impossible (duplicate segments are rejected), but a path name
    // colliding with another component's name is not.
    io::GfaDocument doc;
    doc.segments = {{"x", "ACGT"}, {"y", "TTTT"}};
    doc.paths = {{"y", {"x"}}}; // component of x named "y", clashes
    EXPECT_THROW(importGfa(doc), InputError);
}

/**
 * The headline contract behind `segram map <graph.gfa>`: exporting a
 * FASTA+VCF-built reference to GFA (the `segram construct` shape,
 * prefixed segments + P lines) and importing it back must produce a
 * reference whose mapping results are identical to the original —
 * including after shuffling the segment order of the exported file.
 */
TEST(ImportGfa, ImportedReferenceMapsIdenticallyToBuilt)
{
    sim::DatasetConfig config;
    config.genome.length = 8000;
    config.index.bucketBits = 13;
    config.seed = 99;
    const auto dataset = sim::makeDataset(config);

    // The "built from FASTA+VCF" side.
    std::vector<core::PreprocessedChromosome> built;
    built.push_back({"chr1", dataset.graph,
                     index::MinimizerIndex::build(dataset.graph,
                                                  config.index)});
    const core::PreprocessedReference reference(std::move(built));

    // The exported-GFA side, with construct-style prefixed names.
    const auto part = dataset.graph.toGfa("chr1");
    io::GfaDocument doc;
    for (const auto &segment : part.segments)
        doc.segments.push_back({"chr1." + segment.name, segment.seq});
    for (const auto &link : part.links)
        doc.links.push_back({"chr1." + link.from, "chr1." + link.to});
    io::GfaPath path;
    path.name = "chr1";
    for (const auto &step : part.paths.at(0).steps)
        path.steps.push_back("chr1." + step);
    doc.paths.push_back(path);

    io::GfaDocument shuffled = doc;
    std::reverse(shuffled.segments.begin(), shuffled.segments.end());

    for (const io::GfaDocument &variant : {doc, shuffled}) {
        auto imported = importGfa(variant);
        ASSERT_EQ(imported.size(), 1u);
        EXPECT_EQ(imported[0].name, "chr1");
        std::vector<core::PreprocessedChromosome> chromosomes;
        chromosomes.push_back(
            {imported[0].name, std::move(imported[0].graph), {}});
        chromosomes[0].index = index::MinimizerIndex::build(
            chromosomes[0].graph, config.index);
        const core::PreprocessedReference from_gfa(
            std::move(chromosomes));

        core::SegramConfig segram_config;
        segram_config.tryReverseComplement = true;
        const core::ShardedBatchMapper expect(reference, segram_config);
        const core::ShardedBatchMapper got(from_gfa, segram_config);

        Rng rng(4242);
        std::vector<std::string> reads;
        for (int trial = 0; trial < 40; ++trial) {
            const uint64_t start =
                rng.nextBelow(dataset.donor.seq().size() - 200);
            reads.push_back(dataset.donor.seq().substr(start, 150));
        }
        const auto expected =
            expect.mapBatch(std::span<const std::string>(reads));
        const auto results =
            got.mapBatch(std::span<const std::string>(reads));
        for (size_t i = 0; i < reads.size(); ++i) {
            const auto &a = expected[i];
            const auto &b = results[i];
            EXPECT_EQ(a.mapped, b.mapped);
            EXPECT_EQ(a.linearStart, b.linearStart);
            EXPECT_EQ(a.editDistance, b.editDistance);
            EXPECT_EQ(a.reverseComplemented, b.reverseComplemented);
            EXPECT_EQ(a.chromosome, b.chromosome);
            EXPECT_EQ(a.cigar.toString(), b.cigar.toString());
        }
    }
}

/** buildFromGfa end to end through a real file, against buildFromFiles
 *  semantics: same graph shape, names, and index queryability. */
TEST(BuildFromGfa, ReadsFileAndReportsBuildInfo)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("segram_gfa_import_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string gfa_path = (dir / "ref.gfa").string();

    const GenomeGraph g = graph::buildGraph(
        "ACGTACGTACGTACGTACGTACGTACGTACGT", {{7, "G", "C"}});
    io::writeGfaFile(gfa_path, g.toGfa("chrZ"));

    index::IndexConfig config;
    config.bucketBits = 8;
    core::BuildReport report;
    const auto reference =
        core::PreprocessedReference::buildFromGfa(gfa_path, config, &report);
    const auto &info = report.chromosomes;
    ASSERT_EQ(reference.numChromosomes(), 1u);
    EXPECT_EQ(reference.name(0), "chrZ");
    EXPECT_EQ(reference.graph(0).totalSeqLen(), g.totalSeqLen());
    ASSERT_EQ(info.size(), 1u);
    EXPECT_EQ(info[0].name, "chrZ");
    EXPECT_EQ(info[0].referenceBases, 32u);
    EXPECT_EQ(info[0].variantsApplied, 0u);

    EXPECT_THROW(
        core::PreprocessedReference::buildFromGfa("/nonexistent.gfa"),
        InputError);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace segram
