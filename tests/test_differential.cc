/**
 * @file
 * Differential fuzz harness: the three structurally independent
 * aligner implementations in this repo — BitAlign (Bitap-style status
 * vectors over a DAG), Myers' 1999 algorithm (DP deltas in carry
 * chains) and the plain DP tables (dp_s2g / dp_s2s) — are used as
 * each other's oracles over hundreds of seeded random cases, the same
 * methodology GenASM (MICRO 2020) and SeGraM (ISCA 2022) used to
 * validate accuracy parity against software mappers.
 *
 * Two case families, both fully deterministic (fixed seeds, SplitMix64
 * RNG), together well over 500 cases:
 *
 *  - Random DAGs: BitAlign vs exact sequence-to-graph DP. Edit
 *    distances must match exactly whenever the oracle distance is
 *    within BitAlign's threshold k, the CIGAR must be a valid
 *    alignment of the read against the consumed graph path, and it
 *    must spend the whole read.
 *
 *  - Linear (chain) graphs: three-way BitAlign vs Myers vs
 *    sequence-to-sequence DP agreement, exercising the paper's
 *    universality claim (S2S is S2G on a chain graph).
 *
 * The harness *counts* its cases and asserts the floor, so a refactor
 * that silently skips generation shows up as a failure, not a green
 * run over nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/align/bitalign.h"
#include "src/align/bitalign_core.h"
#include "src/align/myers.h"
#include "src/baseline/dp_s2g.h"
#include "src/baseline/dp_s2s.h"
#include "src/graph/linearize.h"
#include "src/util/rng.h"
#include "tests/align_test_util.h"

namespace segram::align
{
namespace
{

using graph::LinearizedGraph;

TEST(Differential, BitAlignAgreesWithGraphDpOnRandomDags)
{
    // Two read families, zero disagreements on every case:
    //  - short: 24 seeds x 14 trials = 336 (graph, read) cases of
    //    8–55 bp, one-word patterns;
    //  - wide: 12 seeds x 3 trials = 36 cases of 200–600 bp reads
    //    (4–10 words) on branchy, sink-free DAGs, so the batch kernel's
    //    generic-width column and its fixup path run at those widths.
    struct Family
    {
        int seeds, trials, seedBase;
        int minLen, lenSpan; ///< sampled path length
        double hopProb, breakProb, maxRate;
        bool wide;
    };
    const Family families[] = {
        {24, 14, 900'000, 8, 48, 0.18, 0.02, 0.20, false},
        {12, 3, 910'000, 200, 401, 0.25, 0.0, 0.08, true},
    };
    int cases = 0;
    int wide_cases = 0;
    int disagreements = 0;
    for (const Family &family : families) {
        for (int seed = 1; seed <= family.seeds; ++seed) {
            Rng rng(family.seedBase + seed);
            for (int trial = 0; trial < family.trials; ++trial) {
                const int len =
                    family.minLen +
                    static_cast<int>(rng.nextBelow(family.lenSpan));
                // Short reads sample anywhere in a 20–159-node DAG;
                // wide ones start near the source of a DAG long enough
                // for the whole path (hops advance ~1.6 nodes per
                // character).
                const int size =
                    family.wide
                        ? 2 * len + 100
                        : 20 + static_cast<int>(rng.nextBelow(140));
                const auto text = randomDag(rng, size, family.hopProb,
                                            family.breakProb);
                int edits = 0;
                const std::string path =
                    samplePath(text, rng, len, family.wide ? 50 : -1);
                const double rate =
                    0.02 + family.maxRate * rng.nextDouble();
                const std::string read = mutate(path, rng, rate, &edits);
                const int k = std::max<int>(6, edits + 4);
                ++cases;
                wide_cases += read.size() >= 200;

                const auto bitalign = alignWindow(text, read, k);
                const auto oracle =
                    baseline::dpGraphDistance(text, read);
                if (oracle.editDistance > k) {
                    // Above threshold BitAlign must not claim a hit.
                    EXPECT_FALSE(bitalign.found)
                        << "seed " << seed << " trial " << trial;
                    disagreements += bitalign.found;
                    continue;
                }
                ASSERT_TRUE(bitalign.found)
                    << "seed " << seed << " trial " << trial
                    << " oracle " << oracle.editDistance << " k " << k;
                EXPECT_EQ(bitalign.editDistance, oracle.editDistance)
                    << "seed " << seed << " trial " << trial;
                disagreements +=
                    bitalign.editDistance != oracle.editDistance;

                // The CIGAR must be a real alignment of the read
                // against the consumed graph path, spend the whole
                // read, and cost exactly the claimed distance.
                const std::string ref_path =
                    consumedPath(text, bitalign.textPositions);
                EXPECT_TRUE(bitalign.cigar.validate(read, ref_path))
                    << "read " << read << " path " << ref_path;
                EXPECT_EQ(bitalign.cigar.readLength(), read.size());
                EXPECT_EQ(bitalign.cigar.editDistance(),
                          static_cast<uint64_t>(bitalign.editDistance));
            }
        }
    }
    EXPECT_GE(cases, 300);
    EXPECT_GE(wide_cases, 30);
    EXPECT_EQ(disagreements, 0);
}

TEST(Differential, ThreeWayAgreementOnLinearGraphs)
{
    // 20 seeds x 14 trials = 280 chain-graph cases; BitAlign, Myers
    // and the S2S DP table must report the same semi-global edit
    // distance (Myers only up to its 64-char pattern limit).
    int cases = 0;
    int disagreements = 0;
    int myers_cases = 0;
    for (int seed = 1; seed <= 20; ++seed) {
        Rng rng(700'000 + seed);
        for (int trial = 0; trial < 14; ++trial) {
            const int n = 24 + static_cast<int>(rng.nextBelow(140));
            std::string text;
            for (int i = 0; i < n; ++i)
                text.push_back(rng.nextBase());
            LinearizedGraph chain;
            for (int i = 0; i < n; ++i)
                chain.pushChar(text[i],
                               i + 1 < n ? std::vector<uint16_t>{1}
                                         : std::vector<uint16_t>{});
            chain.finalize();

            int edits = 0;
            const int start = static_cast<int>(rng.nextBelow(n / 2));
            const int len = 1 + static_cast<int>(rng.nextBelow(
                                    std::min(64, n - start)));
            const std::string read =
                mutate(text.substr(start, len), rng,
                       0.02 + 0.2 * rng.nextDouble(), &edits);
            ++cases;

            const auto dp = baseline::semiGlobal(text, read, false);
            const int k = dp.editDistance + 2;
            const auto bitalign = alignWindow(chain, read, k);
            ASSERT_TRUE(bitalign.found)
                << "seed " << seed << " trial " << trial;
            EXPECT_EQ(bitalign.editDistance, dp.editDistance)
                << "seed " << seed << " trial " << trial;
            disagreements += bitalign.editDistance != dp.editDistance;
            if (read.size() <= 64) {
                ++myers_cases;
                const auto myers = myersAlign(text, read);
                EXPECT_EQ(myers.editDistance, dp.editDistance)
                    << "seed " << seed << " trial " << trial;
                disagreements += myers.editDistance != dp.editDistance;
            }
        }
    }
    EXPECT_GE(cases, 250);
    EXPECT_GE(myers_cases, 200); // most reads fit Myers' 64-char limit
    EXPECT_EQ(disagreements, 0);
}

TEST(Differential, WindowedBitAlignNeverBeatsTheExactDp)
{
    // The divide-and-conquer mode is a heuristic *upper bound*: it may
    // overshoot the exact distance but must never undercut it, and its
    // CIGAR must still spend the read. 60 long-read style cases.
    int cases = 0;
    for (int seed = 1; seed <= 6; ++seed) {
        Rng rng(800'000 + seed);
        for (int trial = 0; trial < 10; ++trial) {
            const auto text = randomDag(rng, 700, 0.08, 0.0);
            int edits = 0;
            // The divide-and-conquer contract: the alignment must
            // start within the first window (MinSeed regions
            // guarantee this in the pipeline), so restrict the
            // sampled path start accordingly.
            std::string path = samplePath(text, rng, 450, 24);
            if (static_cast<int>(path.size()) < 220)
                continue;
            const std::string read =
                mutate(path, rng, 0.05, &edits);
            BitAlignConfig config;
            config.windowLen = 96;
            config.overlap = 32;
            config.windowEditCap = 24;
            const auto windowed = alignWindowed(text, read, config);
            if (!windowed.found)
                continue;
            ++cases;
            const auto oracle = baseline::dpGraphDistance(text, read);
            EXPECT_GE(windowed.editDistance, oracle.editDistance)
                << "seed " << seed << " trial " << trial;
            EXPECT_EQ(windowed.cigar.readLength(), read.size());
        }
    }
    EXPECT_GE(cases, 20);
}

} // namespace
} // namespace segram::align
