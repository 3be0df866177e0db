/**
 * @file
 * Unit tests for the align module: Algorithm 1 on handcrafted graphs
 * (branches, bypass hops, sinks), traceback CIGAR validity, windowed
 * divide-and-conquer, the GenASM S2S special case, and Myers.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/align/bitalign.h"
#include "src/align/bitalign_core.h"
#include "src/align/genasm.h"
#include "src/align/myers.h"
#include "src/align/window_batch.h"
#include "src/baseline/dp_s2s.h"
#include "src/graph/graph_builder.h"
#include "src/graph/linearize.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::align
{
namespace
{

using graph::LinearizedGraph;

/** Builds a chain-graph text from a string. */
LinearizedGraph
chain(const std::string &text)
{
    LinearizedGraph out;
    for (size_t i = 0; i < text.size(); ++i) {
        std::vector<uint16_t> deltas;
        if (i + 1 < text.size())
            deltas.push_back(1);
        out.pushChar(text[i], std::move(deltas));
    }
    out.finalize();
    return out;
}

/** Reference path string consumed by a window result. */
std::string
consumedPath(const LinearizedGraph &text, const WindowResult &result)
{
    std::string out;
    for (const int pos : result.textPositions)
        out.push_back("ACGT"[text.code(pos)]);
    return out;
}

TEST(PatternBitmasks, BitOrderIsReversed)
{
    // Pattern "ACG": bit 0 <-> 'G', bit 1 <-> 'C', bit 2 <-> 'A'.
    const PatternBitmasks pm = PatternBitmasks::build("ACG");
    EXPECT_EQ(pm.m, 3);
    EXPECT_FALSE(pm.masks[2][0] & 1);        // G at bit 0
    EXPECT_FALSE((pm.masks[1][0] >> 1) & 1); // C at bit 1
    EXPECT_FALSE((pm.masks[0][0] >> 2) & 1); // A at bit 2
    EXPECT_TRUE(pm.masks[3][0] & 1);         // T matches nothing
    EXPECT_THROW(PatternBitmasks::build(""), InputError);
    EXPECT_THROW(PatternBitmasks::build("ACGN"), InputError);
}

TEST(BitAlignCore, ExactMatchOnChain)
{
    const auto text = chain("ACGTACGT");
    const auto result = alignWindow(text, "GTAC", 2);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 0);
    EXPECT_EQ(result.startPos, 2);
    EXPECT_EQ(result.cigar.toString(), "4=");
    EXPECT_EQ(consumedPath(text, result), "GTAC");
}

TEST(BitAlignCore, SubstitutionOnChain)
{
    const auto text = chain("ACGTACGT");
    const auto result = alignWindow(text, "GTCC", 2);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 1);
    EXPECT_TRUE(result.cigar.validate("GTCC",
                                      consumedPath(text, result)));
}

TEST(BitAlignCore, InsertionOnChain)
{
    // Read has an extra base relative to the text.
    const auto text = chain("ACGTACGT");
    const auto result = alignWindow(text, "GTTAC", 2);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 1);
    EXPECT_EQ(result.cigar.count(EditOp::Insertion), 1u);
    EXPECT_TRUE(result.cigar.validate("GTTAC",
                                      consumedPath(text, result)));
}

TEST(BitAlignCore, DeletionOnChain)
{
    // Read misses one text base.
    const auto text = chain("ACGTACGT");
    const auto result = alignWindow(text, "GTCGT", 2);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 1);
    EXPECT_EQ(result.cigar.count(EditOp::Deletion), 1u);
    EXPECT_TRUE(result.cigar.validate("GTCGT",
                                      consumedPath(text, result)));
}

TEST(BitAlignCore, AlignmentMayEndAtSink)
{
    const auto text = chain("ACGT");
    const auto result = alignWindow(text, "CGT", 0);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 0);
    EXPECT_EQ(result.startPos, 1);
}

TEST(BitAlignCore, WholeTextIsPattern)
{
    const auto text = chain("ACGT");
    const auto result = alignWindow(text, "ACGT", 0);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 0);
    EXPECT_EQ(result.cigar.toString(), "4=");
}

TEST(BitAlignCore, NotFoundBeyondThreshold)
{
    const auto text = chain("AAAAAAAA");
    const auto result = alignWindow(text, "TTTT", 2);
    EXPECT_FALSE(result.found);
    // Distance-only variant agrees.
    EXPECT_FALSE(alignWindowDistanceOnly(text, "TTTT", 2).found);
    // With a large enough threshold it is found (4 substitutions).
    const auto relaxed = alignWindow(text, "TTTT", 4);
    ASSERT_TRUE(relaxed.found);
    EXPECT_EQ(relaxed.editDistance, 4);
}

TEST(BitAlignCore, AnchoredModeRestrictsStart)
{
    const auto text = chain("ACGTACGT");
    // "TACG" occurs at position 3 only.
    const auto semi = alignWindow(text, "TACG", 1, AlignMode::SemiGlobal);
    ASSERT_TRUE(semi.found);
    EXPECT_EQ(semi.editDistance, 0);
    EXPECT_EQ(semi.startPos, 3);
    const auto anchored = alignWindow(text, "TACG", 1, AlignMode::Anchored);
    ASSERT_TRUE(anchored.found);
    EXPECT_EQ(anchored.startPos, 0);
    EXPECT_GE(anchored.editDistance, 1); // must pay to start at 0
}

TEST(BitAlignCore, SnpBranchAlignsAltPathExactly)
{
    // Reference ACGTACGT with SNP T->G at position 3. A read carrying
    // the ALT allele aligns with 0 edits through the branch, 1 through
    // the REF path.
    const auto g = graph::buildGraph("ACGTACGT", {{3, "T", "G"}});
    const auto text = graph::linearizeWhole(g);
    const auto alt_read = alignWindow(text, "ACGGACGT", 2);
    ASSERT_TRUE(alt_read.found);
    EXPECT_EQ(alt_read.editDistance, 0);
    EXPECT_EQ(alt_read.startPos, 0);
    EXPECT_TRUE(alt_read.cigar.validate("ACGGACGT",
                                        consumedPath(text, alt_read)));
    const auto ref_read = alignWindow(text, "ACGTACGT", 2);
    ASSERT_TRUE(ref_read.found);
    EXPECT_EQ(ref_read.editDistance, 0);
}

TEST(BitAlignCore, DeletionBypassHopAlignsExactly)
{
    // Deleting TTTT: a read without those bases must use the bypass
    // hop — no other 0-edit path exists in this graph.
    const auto g = graph::buildGraph("ACTTTTGA", {{2, "TTTT", ""}});
    const auto text = graph::linearizeWhole(g);
    const auto result = alignWindow(text, "ACGA", 1);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 0);
    EXPECT_EQ(consumedPath(text, result), "ACGA");
    // The consumed path must jump over the deleted region.
    EXPECT_EQ(result.textPositions[1] + 5, result.textPositions[2]);
}

TEST(BitAlignCore, InsertionBranchAlignsExactly)
{
    const auto g = graph::buildGraph("ACGTACGT", {{4, "", "TT"}});
    const auto text = graph::linearizeWhole(g);
    const auto with_ins = alignWindow(text, "ACGTTTACGT", 1);
    ASSERT_TRUE(with_ins.found);
    EXPECT_EQ(with_ins.editDistance, 0);
    const auto without_ins = alignWindow(text, "ACGTACGT", 1);
    ASSERT_TRUE(without_ins.found);
    EXPECT_EQ(without_ins.editDistance, 0);
}

TEST(BitAlignCore, HopLimitChangesResult)
{
    // With the hop dropped, the deleted bases must be paid as edits.
    const auto g = graph::buildGraph("ACGTACGTACGT", {{2, "GTACGT", ""}});
    const auto full = graph::linearizeWhole(g, graph::kUnlimitedHops);
    const auto limited = graph::linearizeWhole(g, 3);
    const std::string read = "ACACGT"; // donor carries the deletion
    const auto exact = alignWindow(full, read, 3);
    ASSERT_TRUE(exact.found);
    EXPECT_EQ(exact.editDistance, 0);
    const auto degraded = alignWindow(limited, read, 8);
    ASSERT_TRUE(degraded.found);
    EXPECT_GT(degraded.editDistance, 0);
}

TEST(BitAlignCore, MultiWordPattern)
{
    // Patterns beyond 64 and 128 chars exercise the multi-word carry
    // chain of the bitvector shifts.
    Rng rng(33);
    std::string text;
    for (int i = 0; i < 400; ++i)
        text.push_back(rng.nextBase());
    const auto graph_text = chain(text);
    for (const int len : {65, 128, 129, 200, 320}) {
        const std::string read = text.substr(37, len);
        const auto result = alignWindow(graph_text, read, 2);
        ASSERT_TRUE(result.found) << len;
        EXPECT_EQ(result.editDistance, 0) << len;
        EXPECT_EQ(result.startPos, 37) << len;
        // One substitution in the middle still aligns.
        std::string mutated = read;
        mutated[len / 2] = mutated[len / 2] == 'A' ? 'C' : 'A';
        const auto sub = alignWindow(graph_text, mutated, 2);
        ASSERT_TRUE(sub.found) << len;
        EXPECT_EQ(sub.editDistance, 1) << len;
    }
}

TEST(BitAlignCore, SingleCharTextAndPattern)
{
    const auto text = chain("A");
    const auto hit = alignWindow(text, "A", 0);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.editDistance, 0);
    EXPECT_EQ(hit.cigar.toString(), "1=");
    const auto miss = alignWindow(text, "T", 0);
    EXPECT_FALSE(miss.found);
    const auto sub = alignWindow(text, "T", 1);
    ASSERT_TRUE(sub.found);
    EXPECT_EQ(sub.editDistance, 1);
    // Pattern longer than the text: trailing insertions past the sink.
    const auto longer = alignWindow(text, "ACG", 2);
    ASSERT_TRUE(longer.found);
    EXPECT_EQ(longer.editDistance, 2);
    EXPECT_TRUE(longer.cigar.validate(
        "ACG", consumedPath(text, longer)));
}

TEST(BitAlignCore, ZeroThresholdExactOnly)
{
    const auto g = graph::buildGraph("ACGTACGT", {{3, "T", "G"}});
    const auto text = graph::linearizeWhole(g);
    // k = 0: only exact paths are admissible.
    ASSERT_TRUE(alignWindow(text, "ACGG", 0).found); // ALT path
    ASSERT_TRUE(alignWindow(text, "ACGT", 0).found); // REF path
    EXPECT_FALSE(alignWindow(text, "ACCC", 0).found);
}

TEST(BitAlignCore, BranchesOfDifferentLengths)
{
    // An insertion branch makes two parallel paths of different
    // lengths; both must be exactly alignable.
    const auto g = graph::buildGraph("AACCGGTT", {{4, "", "TATA"}});
    const auto text = graph::linearizeWhole(g);
    const auto with_branch = alignWindow(text, "AACCTATAGGTT", 1);
    ASSERT_TRUE(with_branch.found);
    EXPECT_EQ(with_branch.editDistance, 0);
    const auto without_branch = alignWindow(text, "AACCGGTT", 1);
    ASSERT_TRUE(without_branch.found);
    EXPECT_EQ(without_branch.editDistance, 0);
    // A read mixing both paths pays edits.
    const auto mixed = alignWindow(text, "AACCTAGGTT", 4);
    ASSERT_TRUE(mixed.found);
    EXPECT_GT(mixed.editDistance, 0);
}

TEST(BitAlignCore, RejectsBadInputs)
{
    const auto text = chain("ACGT");
    EXPECT_THROW(alignWindow(text, "", 1), InputError);
    EXPECT_THROW(alignWindow(text, "AC", -1), InputError);
    LinearizedGraph empty;
    empty.finalize();
    EXPECT_THROW(alignWindow(empty, "AC", 1), InputError);
}

TEST(BitAlignWindowed, MatchesExactOnShortReads)
{
    const auto text = chain("ACGTACGTACGTACGTACGT");
    BitAlignConfig config;
    config.windowEditCap = 4;
    const auto windowed = alignWindowed(text, "GTACGTAC", config);
    const auto exact = alignExact(text, "GTACGTAC", 4);
    ASSERT_TRUE(windowed.found);
    ASSERT_TRUE(exact.found);
    EXPECT_EQ(windowed.editDistance, exact.editDistance);
    EXPECT_EQ(windowed.linearStart, exact.linearStart);
}

TEST(BitAlignWindowed, NumWindowsMatchesPaper)
{
    BitAlignConfig bitalign; // W=128, overlap 48 -> stride 80
    EXPECT_EQ(numWindows(10'000, bitalign), 125);
    BitAlignConfig genasm;
    genasm.windowLen = 64;
    genasm.overlap = 24; // stride 40
    EXPECT_EQ(numWindows(10'000, genasm), 250);
    EXPECT_EQ(numWindows(100, bitalign), 1);
}

TEST(BitAlignWindowed, LongReadOnGraph)
{
    // A long exact read across a variant graph must align with 0 edits
    // through the divide-and-conquer scheme.
    std::string reference;
    Rng rng(31);
    for (int i = 0; i < 2'000; ++i)
        reference.push_back(rng.nextBase());
    std::vector<graph::Variant> variants;
    for (uint64_t pos = 100; pos + 50 < reference.size(); pos += 200) {
        char alt = rng.nextBase();
        while (alt == reference[pos])
            alt = rng.nextBase();
        variants.push_back({pos, std::string(1, reference[pos]),
                            std::string(1, alt)});
    }
    const auto g = graph::buildGraph(reference, variants);
    const auto text = graph::linearizeWhole(g);
    // Read = the reference backbone (one valid path). The alignment
    // must start inside the first window, so the read begins at the
    // region start — exactly the contract MinSeed regions satisfy.
    const std::string read = reference.substr(0, 800);
    BitAlignConfig config;
    const auto result = alignWindowed(text, read, config);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 0);
    EXPECT_EQ(result.cigar.readLength(), read.size());
}

TEST(BitAlignWindowed, RejectsBadConfig)
{
    const auto text = chain("ACGTACGT");
    BitAlignConfig config;
    config.overlap = config.windowLen;
    EXPECT_THROW(alignWindowed(text, "ACGT", config), InputError);
    config = {};
    config.windowLen = 1;
    EXPECT_THROW(alignWindowed(text, "ACGT", config), InputError);
}

TEST(BitAlign, ScratchReuseMatchesFreshCalls)
{
    // One warm AlignScratch shared across many differently-sized
    // windows, patterns and thresholds must reproduce the fresh-call
    // results exactly — the buffer-reuse contract of the hot path.
    Rng rng(59);
    AlignScratch scratch;
    WindowResult reused;
    for (int trial = 0; trial < 40; ++trial) {
        std::string text;
        const auto text_len = 4 + rng.nextBelow(120);
        for (uint64_t i = 0; i < text_len; ++i)
            text.push_back(rng.nextBase());
        const LinearizedGraph graph_text = chain(text);
        std::string pattern;
        const auto pat_len = 1 + rng.nextBelow(60);
        for (uint64_t i = 0; i < pat_len; ++i)
            pattern.push_back(rng.nextBase());
        const int k = static_cast<int>(rng.nextBelow(12));
        const AlignMode mode = trial % 2 == 0 ? AlignMode::SemiGlobal
                                              : AlignMode::Anchored;
        const WindowResult fresh =
            alignWindow(graph_text, pattern, k, mode);
        alignWindow(graph_text, pattern, k, mode, scratch, reused);
        ASSERT_EQ(fresh.found, reused.found) << "trial " << trial;
        if (!fresh.found)
            continue;
        EXPECT_EQ(fresh.editDistance, reused.editDistance);
        EXPECT_EQ(fresh.startPos, reused.startPos);
        EXPECT_EQ(fresh.cigar.toString(), reused.cigar.toString());
        EXPECT_EQ(fresh.textPositions, reused.textPositions);
    }
}

TEST(BitAlign, WindowedScratchReuseMatchesFreshCalls)
{
    Rng rng(61);
    AlignScratch scratch;
    GraphAlignment reused;
    BitAlignConfig config;
    config.windowLen = 32;
    config.overlap = 12;
    config.windowEditCap = 8;
    for (int trial = 0; trial < 20; ++trial) {
        std::string text;
        for (int i = 0; i < 300; ++i)
            text.push_back(rng.nextBase());
        // Reads are noisy copies of a slice, so most trials align.
        const auto start = rng.nextBelow(100);
        std::string read = text.substr(start, 120);
        for (int e = 0; e < 4; ++e)
            read[rng.nextBelow(read.size())] = rng.nextBase();
        const LinearizedGraph graph_text = chain(text);
        const GraphAlignment fresh =
            alignWindowed(graph_text, read, config);
        alignWindowed(graph_text, read, config, scratch, reused);
        ASSERT_EQ(fresh.found, reused.found) << "trial " << trial;
        if (!fresh.found)
            continue;
        EXPECT_EQ(fresh.editDistance, reused.editDistance);
        EXPECT_EQ(fresh.textStart, reused.textStart);
        EXPECT_EQ(fresh.linearStart, reused.linearStart);
        EXPECT_EQ(fresh.cigar.toString(), reused.cigar.toString());
    }
}

TEST(BitAlign, ViewAlignsLikeWindowCopy)
{
    // Aligning against a zero-copy view of a sub-range must equal
    // aligning against the copying window() of the same range.
    Rng rng(67);
    for (int trial = 0; trial < 20; ++trial) {
        std::string text;
        for (int i = 0; i < 160; ++i)
            text.push_back(rng.nextBase());
        const LinearizedGraph whole = chain(text);
        const int a = static_cast<int>(rng.nextBelow(80));
        const int len =
            static_cast<int>(8 + rng.nextBelow(whole.size() - a - 8));
        std::string pattern = text.substr(a + 2, 12);
        const LinearizedGraph copy = whole.window(a, len);
        const graph::LinearizedGraphView view(whole, a, len);
        const WindowResult from_copy = alignWindow(copy, pattern, 4);
        const WindowResult from_view = alignWindow(view, pattern, 4);
        ASSERT_EQ(from_copy.found, from_view.found) << "trial " << trial;
        if (!from_copy.found)
            continue;
        EXPECT_EQ(from_copy.editDistance, from_view.editDistance);
        EXPECT_EQ(from_copy.startPos, from_view.startPos);
        EXPECT_EQ(from_copy.cigar.toString(),
                  from_view.cigar.toString());
    }
}

/**
 * Runs @p requests through alignWindowBatch and asserts every lane is
 * bit-identical to a standalone alignWindow call on the same request.
 */
void
expectBatchMatchesPerWindow(
    const std::vector<WindowedAlignStream::Request> &requests,
    AlignScratch &scratch, const std::string &label)
{
    const int count = static_cast<int>(requests.size());
    std::vector<WindowResult> batched(requests.size());
    std::vector<const WindowedAlignStream::Request *> reqp;
    std::vector<WindowResult *> resp;
    for (int w = 0; w < count; ++w) {
        reqp.push_back(&requests[static_cast<size_t>(w)]);
        resp.push_back(&batched[static_cast<size_t>(w)]);
    }
    alignWindowBatch(reqp.data(), resp.data(), count, scratch);
    for (int w = 0; w < count; ++w) {
        const auto &req = requests[static_cast<size_t>(w)];
        const WindowResult solo =
            alignWindow(req.window, req.pattern, req.k, req.mode);
        const WindowResult &got = batched[static_cast<size_t>(w)];
        ASSERT_EQ(solo.found, got.found) << label << ", lane " << w;
        if (!solo.found)
            continue;
        EXPECT_EQ(solo.startPos, got.startPos) << label << ", lane " << w;
        EXPECT_EQ(solo.editDistance, got.editDistance)
            << label << ", lane " << w;
        EXPECT_EQ(solo.cigar.toString(), got.cigar.toString())
            << label << ", lane " << w;
        EXPECT_EQ(solo.textPositions, got.textPositions)
            << label << ", lane " << w;
    }
}

TEST(WindowBatch, MatchesPerWindowOnRandomChains)
{
    // Ragged batch sizes, mixed text and pattern lengths (window
    // lengths differ -> early-retiring lanes; pattern lengths cross
    // the 64-bit word boundary -> mixed-width batches), mixed modes.
    Rng rng(0xba7c41);
    AlignScratch scratch;
    std::vector<LinearizedGraph> texts;
    std::vector<std::string> patterns;
    for (int trial = 0; trial < 60; ++trial) {
        const int count = 1 + static_cast<int>(rng.nextBelow(4));
        const int k = static_cast<int>(rng.nextBelow(9));
        texts.clear();
        patterns.clear();
        std::vector<WindowedAlignStream::Request> requests;
        for (int w = 0; w < count; ++w) {
            std::string text;
            const auto text_len = 8 + rng.nextBelow(120);
            for (uint64_t i = 0; i < text_len; ++i)
                text.push_back(rng.nextBase());
            std::string pattern;
            const auto pat_len = 1 + rng.nextBelow(100);
            for (uint64_t i = 0; i < pat_len; ++i)
                pattern.push_back(rng.nextBase());
            texts.push_back(chain(text));
            patterns.push_back(std::move(pattern));
        }
        for (int w = 0; w < count; ++w) {
            const AlignMode mode = rng.nextBelow(2) == 0
                                       ? AlignMode::SemiGlobal
                                       : AlignMode::Anchored;
            requests.push_back({graph::LinearizedGraphView(
                                    texts[static_cast<size_t>(w)]),
                                patterns[static_cast<size_t>(w)], k,
                                mode});
        }
        expectBatchMatchesPerWindow(requests, scratch,
                                    "trial " + std::to_string(trial));
    }
}

TEST(WindowBatch, MatchesPerWindowOnBranchyGraphs)
{
    // Hop fan-outs, deletion bypass hops and insertion branches break
    // the fast sweep's single-successor assumption — the exception
    // fixup path must keep every lane exact, including when the four
    // lanes carry different graph shapes at once.
    const auto snp = graph::buildGraph("ACGTACGTACGTACGT", {{3, "T", "G"}});
    const auto del = graph::buildGraph("ACTTTTGAACGTACGT", {{2, "TTTT", ""}});
    const auto ins = graph::buildGraph("ACGTACGTACGTACGT", {{4, "", "TT"}});
    const auto multi = graph::buildGraph(
        "ACGTACGTACGTACGTACGT", {{2, "G", "C"}, {9, "ACG", ""}, {14, "", "GG"}});
    const LinearizedGraph texts[] = {
        graph::linearizeWhole(snp), graph::linearizeWhole(del),
        graph::linearizeWhole(ins), graph::linearizeWhole(multi)};
    const std::string patterns[] = {"ACGGACGT", "ACGAACGT", "ACGTTTACGT",
                                    "ACCTACGTTACGT"};
    AlignScratch scratch;
    std::vector<WindowedAlignStream::Request> requests;
    for (int w = 0; w < 4; ++w)
        requests.push_back({graph::LinearizedGraphView(texts[w]),
                            patterns[w], 3, AlignMode::SemiGlobal});
    expectBatchMatchesPerWindow(requests, scratch, "branchy");
}

TEST(WindowBatch, MixedWidthLanesStayBitIdentical)
{
    // One-word and two-word patterns in the same batch: the narrow
    // lanes ride padded to the widest lane's word count with all-ones
    // pattern-mask words their probes never read.
    Rng rng(0x31d7);
    std::string text;
    for (int i = 0; i < 200; ++i)
        text.push_back(rng.nextBase());
    const LinearizedGraph whole = chain(text);
    const std::string narrow = text.substr(10, 20);   // 1 word
    const std::string wide = text.substr(40, 100);    // 2 words
    AlignScratch scratch;
    std::vector<WindowedAlignStream::Request> requests = {
        {graph::LinearizedGraphView(whole), narrow, 4,
         AlignMode::SemiGlobal},
        {graph::LinearizedGraphView(whole), wide, 4,
         AlignMode::SemiGlobal},
        {graph::LinearizedGraphView(whole), wide, 4, AlignMode::Anchored},
        {graph::LinearizedGraphView(whole), narrow, 4,
         AlignMode::Anchored},
    };
    expectBatchMatchesPerWindow(requests, scratch, "mixed-width");
}

TEST(BitAlign, TiedStartsGoToTheSmallestPosition)
{
    // "TCGT" aligns to "AACGT" at distance 1 from position 1 (T/A
    // substitution) and from position 2 (leading insertion); the hit
    // scan takes the minimum distance first and then the smallest
    // start, in both the traceback and the distance-only path.
    const auto text = chain("AACGT");
    for (const int k : {1, 2, 9}) {
        const WindowResult full = alignWindow(text, "TCGT", k);
        ASSERT_TRUE(full.found) << k;
        EXPECT_EQ(full.editDistance, 1) << k;
        EXPECT_EQ(full.startPos, 1) << k;
        const WindowResult distance =
            alignWindowDistanceOnly(text, "TCGT", k);
        EXPECT_EQ(distance.startPos, 1) << k;
    }
}

TEST(WindowBatch, LaneResultIgnoresWhereItsMatesStop)
{
    // The level-blocked sweep runs a batch until its slowest lane's
    // hit: a window batched with mates that hit at level 0 stops early,
    // with a mate that misses it runs to k, and mates of another width
    // and length change the batch's word count and step count. None of
    // that may change the window's own result.
    Rng rng(0x57094);
    std::string text;
    for (int i = 0; i < 240; ++i)
        text.push_back(rng.nextBase());
    const LinearizedGraph whole = chain(text);
    std::string other;
    for (int i = 0; i < 70; ++i)
        other.push_back(rng.nextBase());
    const LinearizedGraph short_text = chain(other);
    std::string noise;
    for (int i = 0; i < 100; ++i)
        noise.push_back(rng.nextBase());

    constexpr int kCap = 20;
    const auto view = [](const LinearizedGraph &g) {
        return graph::LinearizedGraphView(g);
    };
    // Mates: an exact hit (level 0), a miss (random 2-word pattern on a
    // short text, far beyond k), and an exact hit of another width on
    // a shorter text.
    const std::string exact = text.substr(30, 40);
    const std::string wide = other.substr(0, 66);
    const WindowedAlignStream::Request mates[] = {
        {view(whole), exact, kCap, AlignMode::SemiGlobal},
        {view(short_text), noise, kCap, AlignMode::SemiGlobal},
        {view(short_text), wide, kCap, AlignMode::Anchored},
    };
    AlignScratch scratch;
    for (const int edits : {0, 3, 7, 8, 9, 15, 16, kCap, kCap + 1}) {
        // The target: a 60-char slice of the long text with `edits`
        // substitutions, every third character at most.
        std::string pattern = text.substr(120, 60);
        for (int e = 0; e < edits; ++e) {
            const size_t at = static_cast<size_t>(3 * e);
            pattern[at] = pattern[at] == 'A' ? 'C' : 'A';
        }
        for (const AlignMode mode :
             {AlignMode::SemiGlobal, AlignMode::Anchored}) {
            const WindowedAlignStream::Request target{view(whole), pattern,
                                                      kCap, mode};
            // Every mate set, with the target in every lane.
            for (int mask = 0; mask < 8; ++mask) {
                std::vector<WindowedAlignStream::Request> others;
                for (int j = 0; j < 3; ++j)
                    if ((mask >> j) & 1)
                        others.push_back(mates[j]);
                for (size_t lane = 0; lane <= others.size(); ++lane) {
                    std::vector<WindowedAlignStream::Request> requests =
                        others;
                    requests.insert(requests.begin() +
                                        static_cast<std::ptrdiff_t>(lane),
                                    target);
                    expectBatchMatchesPerWindow(
                        requests, scratch,
                        "edits " + std::to_string(edits) + " mates " +
                            std::to_string(mask) + " lane " +
                            std::to_string(lane));
                }
            }
        }
    }
}

TEST(WindowBatch, RejectsMismatchedEditCaps)
{
    const LinearizedGraph text = chain("ACGTACGT");
    WindowedAlignStream::Request a{graph::LinearizedGraphView(text),
                                   "ACGT", 2, AlignMode::SemiGlobal};
    WindowedAlignStream::Request b{graph::LinearizedGraphView(text),
                                   "ACGT", 3, AlignMode::SemiGlobal};
    const WindowedAlignStream::Request *reqs[] = {&a, &b};
    WindowResult ra, rb;
    WindowResult *results[] = {&ra, &rb};
    AlignScratch scratch;
    EXPECT_THROW(alignWindowBatch(reqs, results, 2, scratch), InputError);
    EXPECT_THROW(alignWindowBatch(reqs, results, 0, scratch), InputError);
}

TEST(GenAsm, MatchesDpSemiGlobal)
{
    const std::string text = "ACGTACGTACGTTTGGCA";
    for (const std::string pattern :
         {"ACGT", "TTGG", "GTACGTT", "AAAA", "CATG"}) {
        const auto genasm = genAsmAlign(text, pattern, 8);
        const auto dp = baseline::semiGlobal(text, pattern, false);
        ASSERT_TRUE(genasm.found) << pattern;
        EXPECT_EQ(genasm.editDistance, dp.editDistance) << pattern;
    }
}

TEST(GenAsm, ReportsLeftmostBestStart)
{
    const auto result = genAsmAlign("AACGTAACGT", "ACGT", 2);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.editDistance, 0);
    EXPECT_EQ(result.textStart, 1);
}

TEST(GenAsm, AgreesWithBitAlignOnChain)
{
    const std::string text = "ACGTACGTACGTTTGGCATT";
    const auto graph_text = chain(text);
    for (const std::string pattern : {"CGTAC", "TTTGG", "GGTTC", "ACCA"}) {
        const auto genasm = genAsmAlign(text, pattern, 6);
        const auto bitalign = alignWindow(graph_text, pattern, 6);
        ASSERT_EQ(genasm.found, bitalign.found) << pattern;
        if (genasm.found) {
            EXPECT_EQ(genasm.editDistance, bitalign.editDistance)
                << pattern;
            EXPECT_EQ(genasm.textStart, bitalign.startPos) << pattern;
        }
    }
}

TEST(GenAsm, ScratchReuseMatchesFreshCalls)
{
    Rng rng(71);
    AlignScratch scratch;
    for (int trial = 0; trial < 30; ++trial) {
        std::string text;
        const auto text_len = 4 + rng.nextBelow(150);
        for (uint64_t i = 0; i < text_len; ++i)
            text.push_back(rng.nextBase());
        std::string pattern;
        const auto pat_len = 1 + rng.nextBelow(70);
        for (uint64_t i = 0; i < pat_len; ++i)
            pattern.push_back(rng.nextBase());
        const int k = static_cast<int>(rng.nextBelow(10));
        const GenAsmResult fresh = genAsmAlign(text, pattern, k);
        const GenAsmResult reused =
            genAsmAlign(text, pattern, k, scratch);
        ASSERT_EQ(fresh.found, reused.found) << "trial " << trial;
        EXPECT_EQ(fresh.editDistance, reused.editDistance);
        EXPECT_EQ(fresh.textStart, reused.textStart);
    }
}

TEST(Myers, MatchesDpSemiGlobal)
{
    const std::string text = "ACGTACGTACGTTTGGCA";
    for (const std::string pattern :
         {"ACGT", "TTGG", "GTACGTT", "AAAA", "CATG"}) {
        const auto myers = myersAlign(text, pattern);
        const auto dp = baseline::semiGlobal(text, pattern, false);
        EXPECT_EQ(myers.editDistance, dp.editDistance) << pattern;
    }
}

TEST(Myers, RejectsBadInputs)
{
    EXPECT_THROW(myersAlign("ACGT", ""), InputError);
    EXPECT_THROW(myersAlign("ACGT", std::string(65, 'A')), InputError);
    EXPECT_THROW(myersAlign("", "ACGT"), InputError);
}

} // namespace
} // namespace segram::align
