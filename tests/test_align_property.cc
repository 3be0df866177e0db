/**
 * @file
 * Property tests for BitAlign: randomized sweeps (TEST_P) comparing the
 * bitvector aligner against the DP oracle on random DAGs and random
 * strings, with full CIGAR validation on the consumed path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/align/bitalign.h"
#include "src/align/bitalign_core.h"
#include "src/align/genasm.h"
#include "src/align/myers.h"
#include "src/baseline/dp_s2g.h"
#include "src/baseline/dp_s2s.h"
#include "src/graph/linearize.h"
#include "src/util/dna.h"
#include "src/util/rng.h"
#include "tests/align_test_util.h"

namespace segram::align
{
namespace
{

using graph::LinearizedGraph;

class BitAlignVsOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(BitAlignVsOracle, RandomDagMatchesDp)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 8; ++trial) {
        const int size = 20 + static_cast<int>(rng.nextBelow(120));
        const auto text = randomDag(rng, size, 0.15, 0.02);
        int edits = 0;
        const std::string path =
            samplePath(text, rng, 10 + rng.nextBelow(40));
        const std::string read = mutate(path, rng, 0.12, &edits);
        const int k = std::max<int>(8, edits + 4);

        const auto bitalign = alignWindow(text, read, k);
        const auto oracle = baseline::dpGraphDistance(text, read);

        if (oracle.editDistance <= k) {
            ASSERT_TRUE(bitalign.found)
                << "seed " << GetParam() << " trial " << trial;
            EXPECT_EQ(bitalign.editDistance, oracle.editDistance)
                << "seed " << GetParam() << " trial " << trial;
            // The traceback must be a real alignment of the read against
            // the consumed path, at the claimed cost.
            const std::string ref_path =
                consumedPath(text, bitalign.textPositions);
            EXPECT_TRUE(bitalign.cigar.validate(read, ref_path))
                << "read " << read << " path " << ref_path;
            EXPECT_EQ(bitalign.cigar.editDistance(),
                      static_cast<uint64_t>(bitalign.editDistance));
            // Consumed positions must follow graph edges.
            for (size_t i = 0; i + 1 < bitalign.textPositions.size();
                 ++i) {
                const int from = bitalign.textPositions[i];
                const int to = bitalign.textPositions[i + 1];
                bool edge = false;
                for (const auto delta : text.successorDeltas(from))
                    edge |= from + delta == to;
                EXPECT_TRUE(edge) << from << " -> " << to;
            }
        } else {
            EXPECT_FALSE(bitalign.found)
                << "oracle " << oracle.editDistance << " k " << k;
        }
    }
}

TEST_P(BitAlignVsOracle, DistanceOnlyAgreesWithTraceback)
{
    Rng rng(GetParam() + 1000);
    const auto text = randomDag(rng, 80, 0.2, 0.02);
    for (int trial = 0; trial < 10; ++trial) {
        int edits = 0;
        const std::string read =
            mutate(samplePath(text, rng, 30), rng, 0.15, &edits);
        const auto with_tb = alignWindow(text, read, 12);
        const auto without_tb = alignWindowDistanceOnly(text, read, 12);
        EXPECT_EQ(with_tb.found, without_tb.found);
        if (with_tb.found) {
            EXPECT_EQ(with_tb.editDistance, without_tb.editDistance);
            EXPECT_EQ(with_tb.startPos, without_tb.startPos);
        }
    }
}

TEST_P(BitAlignVsOracle, ChainCaseMatchesStringAligners)
{
    // On chain graphs, four independent implementations must agree:
    // BitAlign, GenASM, Myers and the DP table.
    Rng rng(GetParam() + 2000);
    for (int trial = 0; trial < 10; ++trial) {
        std::string text;
        const int n = 30 + static_cast<int>(rng.nextBelow(100));
        for (int i = 0; i < n; ++i)
            text.push_back(rng.nextBase());
        LinearizedGraph chain_text;
        for (int i = 0; i < n; ++i) {
            chain_text.pushChar(
                text[i], i + 1 < n ? std::vector<uint16_t>{1}
                                   : std::vector<uint16_t>{});
        }
        chain_text.finalize();

        int edits = 0;
        const int start = static_cast<int>(rng.nextBelow(n / 2));
        const int len =
            1 + static_cast<int>(rng.nextBelow(std::min(60, n - start)));
        const std::string read =
            mutate(text.substr(start, len), rng, 0.15, &edits);

        const auto dp = baseline::semiGlobal(text, read, false);
        const int k = dp.editDistance + 3;
        const auto bitalign = alignWindow(chain_text, read, k);
        const auto genasm = genAsmAlign(text, read, k);
        ASSERT_TRUE(bitalign.found);
        ASSERT_TRUE(genasm.found);
        EXPECT_EQ(bitalign.editDistance, dp.editDistance);
        EXPECT_EQ(genasm.editDistance, dp.editDistance);
        EXPECT_EQ(genasm.textStart, bitalign.startPos);
        if (read.size() <= 64) {
            EXPECT_EQ(myersAlign(text, read).editDistance,
                      dp.editDistance);
        }
    }
}

TEST_P(BitAlignVsOracle, WindowedIsValidAndNearExact)
{
    Rng rng(GetParam() + 3000);
    int equal = 0;
    int total = 0;
    for (int trial = 0; trial < 6; ++trial) {
        const auto text = randomDag(rng, 600, 0.1, 0.0);
        int edits = 0;
        // The divide-and-conquer contract: the alignment must start
        // within the first window, as MinSeed regions guarantee.
        const std::string read =
            mutate(samplePath(text, rng, 400, 24), rng, 0.05, &edits);
        if (read.size() < 200)
            continue;
        BitAlignConfig config;
        config.windowLen = 96;
        config.overlap = 32;
        config.windowEditCap = 24;
        const auto windowed = alignWindowed(text, read, config);
        const auto oracle = baseline::dpGraphDistance(text, read);
        if (!windowed.found)
            continue;
        ++total;
        // Windowed is a heuristic upper bound with bounded overage.
        EXPECT_GE(windowed.editDistance, oracle.editDistance);
        EXPECT_LE(windowed.editDistance,
                  oracle.editDistance +
                      std::max<int>(16, static_cast<int>(read.size()) / 8));
        EXPECT_EQ(windowed.cigar.readLength(), read.size());
        equal += windowed.editDistance == oracle.editDistance;
    }
    if (total > 0) {
        // Even on adversarial random DAGs (worst case for the greedy
        // cut), at least a third of alignments stay exactly optimal;
        // genome-like inputs are exercised by the integration tests.
        EXPECT_GE(equal * 3, total)
            << equal << " of " << total << " exact";
    }
}

TEST_P(BitAlignVsOracle, ChainDistanceInvariantUnderReverseComplement)
{
    // Sequence-to-graph property on linear graphs: edit distance is a
    // palindrome-symmetric metric, so aligning the reverse-complement
    // read against the reverse-complement text must cost exactly the
    // same. Catches any directional bias in the bitvector recurrence
    // (e.g. shift-direction or first/last-window asymmetries).
    Rng rng(GetParam() + 7000);
    for (int trial = 0; trial < 8; ++trial) {
        const int n = 30 + static_cast<int>(rng.nextBelow(90));
        std::string text;
        for (int i = 0; i < n; ++i)
            text.push_back(rng.nextBase());
        const std::string rc_text = reverseComplement(text);

        int edits = 0;
        const int start = static_cast<int>(rng.nextBelow(n / 2));
        const int len =
            1 + static_cast<int>(rng.nextBelow(std::min(50, n - start)));
        const std::string read =
            mutate(text.substr(start, len), rng, 0.12, &edits);
        const std::string rc_read = reverseComplement(read);

        const auto make_chain = [](const std::string &seq) {
            LinearizedGraph chain;
            const int size = static_cast<int>(seq.size());
            for (int i = 0; i < size; ++i)
                chain.pushChar(seq[i],
                               i + 1 < size ? std::vector<uint16_t>{1}
                                            : std::vector<uint16_t>{});
            chain.finalize();
            return chain;
        };
        const int k = edits + 4;
        const auto forward = alignWindow(make_chain(text), read, k);
        const auto reverse =
            alignWindow(make_chain(rc_text), rc_read, k);
        ASSERT_TRUE(forward.found);
        ASSERT_TRUE(reverse.found);
        EXPECT_EQ(forward.editDistance, reverse.editDistance)
            << "text " << text << " read " << read;
    }
}

TEST_P(BitAlignVsOracle, DistanceNeverExceedsPlantedErrorCount)
{
    // A read derived from a graph path by e edits can always be
    // aligned back at cost <= e; in particular an error-free window
    // must align exactly (distance 0). The mutate() edit counter is
    // the planted-error budget.
    Rng rng(GetParam() + 8000);
    for (int trial = 0; trial < 8; ++trial) {
        const int size = 30 + static_cast<int>(rng.nextBelow(120));
        const auto text = randomDag(rng, size, 0.15, 0.0);
        const std::string path =
            samplePath(text, rng, 12 + rng.nextBelow(40));

        // Error-free: the exact path must come back at distance 0.
        const auto clean = alignWindow(text, path, 4);
        ASSERT_TRUE(clean.found);
        EXPECT_EQ(clean.editDistance, 0) << "path " << path;

        // e planted errors: distance at most e (BitAlign is exact
        // within one window, so <= holds even when a cheaper
        // alignment than the planted one exists).
        int edits = 0;
        const std::string read = mutate(path, rng, 0.15, &edits);
        const auto noisy = alignWindow(text, read, edits + 2);
        ASSERT_TRUE(noisy.found);
        EXPECT_LE(noisy.editDistance, edits)
            << "path " << path << " read " << read;
    }
}

/**
 * @p path with exactly @p edits substitutions, at distinct positions at
 * least three apart (so no cheaper indel alignment folds two of them).
 */
std::string
plantSubstitutions(const std::string &path, Rng &rng, int edits)
{
    std::vector<int> slots;
    for (int i = 0; i < static_cast<int>(path.size()); i += 3)
        slots.push_back(i);
    EXPECT_LE(edits, static_cast<int>(slots.size()));
    std::string out = path;
    for (int e = 0; e < edits && !slots.empty(); ++e) {
        const auto pick = rng.nextBelow(slots.size());
        const int at = slots[pick];
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(pick));
        char alt = rng.nextBase();
        while (alt == path[static_cast<size_t>(at)])
            alt = rng.nextBase();
        out[static_cast<size_t>(at)] = alt;
    }
    return out;
}

TEST_P(BitAlignVsOracle, ResultIsTheSameAtEveryCapFromItsDistanceUp)
{
    // Levels d <= k' of the recurrence do not depend on the cap, so a
    // window whose best hit sits at d* must come back identical
    // (distance, start, CIGAR, consumed positions) at every cap
    // k' >= d*, and not found at every k' < d*. The level-blocked sweep
    // stops after the 8-level block holding the hit, so d* is planted
    // on both sides of the block edges (7|8, 15|16), at the reference
    // cap 32 and one past it; graph windows with hops put fixup columns
    // in every block.
    constexpr int kCap = 32;
    Rng rng(GetParam() + 9000);
    std::vector<bool> seen(kCap + 2, false);
    for (const int planted : {0, 7, 8, 9, 15, 16, 24, kCap, kCap + 1}) {
        for (const int m : {60, 110}) {
            if (3 * planted > m)
                continue; // not enough spaced slots
            for (const bool hops : {false, true}) {
                for (const AlignMode mode :
                     {AlignMode::SemiGlobal, AlignMode::Anchored}) {
                    const bool anchored = mode == AlignMode::Anchored;
                    // A hop skips up to 9 characters, so graph windows
                    // get the room for a read of length m.
                    const auto text = randomDag(
                        rng, hops ? 2 * m + 40 : m + 40, hops ? 0.15 : 0.0,
                        0.0);
                    const std::string path =
                        samplePath(text, rng, m, anchored ? 0 : 40);
                    const std::string read =
                        plantSubstitutions(path, rng, planted);
                    const std::string label =
                        "planted " + std::to_string(planted) + " m " +
                        std::to_string(m) + (hops ? " hops" : " linear") +
                        (anchored ? " anchored" : " free");

                    const WindowResult ref =
                        alignWindow(text, read, kCap, mode);
                    const int dstar = ref.found ? ref.editDistance : kCap + 1;
                    EXPECT_LE(dstar, planted) << label;
                    seen[static_cast<size_t>(dstar)] = true;
                    if (!anchored) {
                        const int oracle =
                            baseline::dpGraphDistance(text, read)
                                .editDistance;
                        EXPECT_EQ(std::min(oracle, kCap + 1), dstar)
                            << label;
                    }
                    if (!anchored && !hops && ref.found) {
                        // Ties at d* go to the smallest start: on a
                        // chain, an Anchored window that begins at i
                        // scores exactly the alignments starting at i.
                        int first = -1;
                        for (int i = 0; i < text.size() && first < 0; ++i) {
                            const graph::LinearizedGraphView from(
                                text, i, text.size() - i);
                            const WindowResult at =
                                alignWindow(from, read, dstar,
                                            AlignMode::Anchored);
                            if (at.found && at.editDistance == dstar)
                                first = i;
                        }
                        EXPECT_EQ(ref.startPos, first) << label;
                    }
                    for (int cap = std::max(0, dstar - 1); cap <= kCap;
                         ++cap) {
                        const WindowResult got =
                            alignWindow(text, read, cap, mode);
                        ASSERT_EQ(got.found, dstar <= cap)
                            << label << " cap " << cap;
                        if (!got.found)
                            continue;
                        EXPECT_EQ(got.editDistance, ref.editDistance)
                            << label << " cap " << cap;
                        EXPECT_EQ(got.startPos, ref.startPos)
                            << label << " cap " << cap;
                        EXPECT_EQ(got.cigar.toString(),
                                  ref.cigar.toString())
                            << label << " cap " << cap;
                        EXPECT_EQ(got.textPositions, ref.textPositions)
                            << label << " cap " << cap;
                    }
                    // k = 0: found iff the read occurs exactly.
                    EXPECT_EQ(alignWindow(text, read, 0, mode).found,
                              dstar == 0)
                        << label;
                }
            }
        }
    }
    // The planted distances really straddle the block edges.
    for (const int d : {0, 7, 8, 9, 15, 16, kCap, kCap + 1})
        EXPECT_TRUE(seen[static_cast<size_t>(d)]) << "no window at d* " << d;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitAlignVsOracle,
                         ::testing::Range(1, 13));

class S2SEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(S2SEquivalence, RandomStrings)
{
    // Fully random (unrelated) strings: worst-case edit distances.
    Rng rng(GetParam() + 5000);
    for (int trial = 0; trial < 6; ++trial) {
        const int n = 10 + static_cast<int>(rng.nextBelow(80));
        const int m = 1 + static_cast<int>(rng.nextBelow(40));
        std::string text;
        std::string read;
        for (int i = 0; i < n; ++i)
            text.push_back(rng.nextBase());
        for (int i = 0; i < m; ++i)
            read.push_back(rng.nextBase());
        const auto dp = baseline::semiGlobal(text, read, false);
        const auto genasm = genAsmAlign(text, read, m);
        ASSERT_TRUE(genasm.found);
        EXPECT_EQ(genasm.editDistance, dp.editDistance)
            << text << " / " << read;
        if (m <= 64) {
            EXPECT_EQ(myersAlign(text, read).editDistance,
                      dp.editDistance);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, S2SEquivalence, ::testing::Range(1, 9));

} // namespace
} // namespace segram::align
