/**
 * @file
 * Unit and property tests for the util substrate: bitvectors, DNA
 * codes, packed sequences, the invertible hash, CIGARs, the RNG and
 * the radix sort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/bitvector.h"
#include "src/util/check.h"
#include "src/util/cigar.h"
#include "src/util/dna.h"
#include "src/util/hash.h"
#include "src/util/packed_seq.h"
#include "src/util/radix_sort.h"
#include "src/util/rng.h"
#include "src/util/table_storage.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace segram
{
namespace
{

TEST(Bitvector, ConstructsAllOnes)
{
    Bitvector bv(130);
    EXPECT_EQ(bv.width(), 130);
    EXPECT_EQ(bv.numWords(), 3);
    for (int i = 0; i < 130; ++i)
        EXPECT_TRUE(bv.test(i)) << i;
    EXPECT_EQ(bv.countZeros(), 0);
}

TEST(Bitvector, SetAndTest)
{
    Bitvector bv(70);
    bv.set(0, false);
    bv.set(64, false);
    bv.set(69, false);
    EXPECT_FALSE(bv.test(0));
    EXPECT_FALSE(bv.test(64));
    EXPECT_FALSE(bv.test(69));
    EXPECT_TRUE(bv.test(1));
    EXPECT_EQ(bv.countZeros(), 3);
}

TEST(Bitvector, ShiftBringsZeroIntoBitZero)
{
    Bitvector bv(65);
    bv.shiftLeftOne();
    EXPECT_FALSE(bv.test(0));
    for (int i = 1; i < 65; ++i)
        EXPECT_TRUE(bv.test(i)) << i;
}

TEST(Bitvector, ShiftCarriesAcrossWords)
{
    Bitvector bv(128, false);
    bv.set(63, true);
    bv.shiftLeftOne();
    EXPECT_FALSE(bv.test(63));
    EXPECT_TRUE(bv.test(64));
}

TEST(Bitvector, AndOrSemantics)
{
    Bitvector a(8, false);
    Bitvector b(8, false);
    a.set(1, true);
    a.set(2, true);
    b.set(2, true);
    b.set(3, true);
    EXPECT_TRUE((a & b).test(2));
    EXPECT_FALSE((a & b).test(1));
    EXPECT_TRUE((a | b).test(1));
    EXPECT_TRUE((a | b).test(3));
    EXPECT_FALSE((a | b).test(0));
}

TEST(Bitvector, ToStringMsbFirst)
{
    Bitvector bv(4, false);
    bv.set(3, true);
    EXPECT_EQ(bv.toString(), "1000");
}

TEST(Bitvector, ShiftEquivalenceWithReference)
{
    // Property: multi-word shift matches a naive per-bit shift.
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const int width = 1 + static_cast<int>(rng.nextBelow(200));
        Bitvector bv(width, false);
        std::vector<bool> ref(width, false);
        for (int i = 0; i < width; ++i) {
            const bool bit = rng.nextBool(0.5);
            bv.set(i, bit);
            ref[i] = bit;
        }
        bv.shiftLeftOne();
        for (int i = width - 1; i >= 1; --i)
            ref[i] = ref[i - 1];
        ref[0] = false;
        for (int i = 0; i < width; ++i)
            EXPECT_EQ(bv.test(i), ref[i]) << "width " << width << " bit " << i;
    }
}

TEST(Dna, CodeRoundTrip)
{
    EXPECT_EQ(baseToCode('A'), 0);
    EXPECT_EQ(baseToCode('C'), 1);
    EXPECT_EQ(baseToCode('G'), 2);
    EXPECT_EQ(baseToCode('T'), 3);
    EXPECT_EQ(baseToCode('a'), 0);
    EXPECT_EQ(baseToCode('N'), kInvalidBaseCode);
    for (uint8_t code = 0; code < 4; ++code)
        EXPECT_EQ(baseToCode(codeToBase(code)), code);
}

TEST(Dna, ReverseComplement)
{
    EXPECT_EQ(reverseComplement("ACGT"), "ACGT");
    EXPECT_EQ(reverseComplement("AAAC"), "GTTT");
    EXPECT_EQ(reverseComplement(reverseComplement("GATTACA")), "GATTACA");
}

TEST(Dna, NormalizeReplacesAmbiguous)
{
    EXPECT_EQ(normalizeDna("acgtN"), "ACGTA");
    EXPECT_TRUE(isValidDna("ACGT"));
    EXPECT_FALSE(isValidDna("ACGN"));
}

TEST(PackedSeq, RoundTrip)
{
    const std::string seq = "ACGTACGTTTGGCCAA";
    PackedSeq packed(seq);
    EXPECT_EQ(packed.size(), seq.size());
    EXPECT_EQ(packed.toString(), seq);
    EXPECT_EQ(packed.substr(4, 4), "ACGT");
    EXPECT_EQ(packed.baseAt(8), 'T');
}

TEST(PackedSeq, LongRandomRoundTrip)
{
    Rng rng(11);
    std::string seq;
    for (int i = 0; i < 1000; ++i)
        seq.push_back(rng.nextBase());
    PackedSeq packed(seq);
    EXPECT_EQ(packed.toString(), seq);
}

TEST(PackedSeq, RejectsInvalidBase)
{
    PackedSeq packed;
    EXPECT_THROW(packed.pushBase('N'), InputError);
}

TEST(TableStorage, OwnedAndBorrowedReadIdentically)
{
    const std::vector<uint32_t> values = {5, 7, 11, 13};
    util::TableStorage<uint32_t> owned(values);
    const auto borrowed = util::TableStorage<uint32_t>::borrow(
        {values.data(), values.size()});

    EXPECT_FALSE(owned.borrowed());
    EXPECT_TRUE(borrowed.borrowed());
    EXPECT_TRUE(owned == borrowed);
    ASSERT_EQ(borrowed.size(), values.size());
    EXPECT_EQ(borrowed[2], 11u);
    EXPECT_EQ(borrowed.data(), values.data()); // zero-copy
    EXPECT_EQ(borrowed.bytes(), values.size() * sizeof(uint32_t));
    uint64_t sum = 0;
    for (const uint32_t v : borrowed)
        sum += v;
    EXPECT_EQ(sum, 36u);
}

TEST(TableStorage, MutationDetachesBorrowedCopyOnWrite)
{
    const std::vector<uint32_t> values = {1, 2, 3};
    auto table = util::TableStorage<uint32_t>::borrow(
        {values.data(), values.size()});
    table.vec().push_back(4);
    EXPECT_FALSE(table.borrowed());
    ASSERT_EQ(table.size(), 4u);
    EXPECT_EQ(table[3], 4u);
    EXPECT_EQ(values.size(), 3u); // the borrowed source is untouched
    EXPECT_NE(table.data(), values.data());
}

TEST(Hash, IsInvertible)
{
    // The minimizer hash must be a bijection so distinct k-mers never
    // collide in the index (a load-bearing property of Fig. 6).
    Rng rng(3);
    for (const int bits : {8, 20, 30, 40, 64}) {
        const uint64_t mask =
            bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
        for (int trial = 0; trial < 200; ++trial) {
            const uint64_t key = rng.nextU64() & mask;
            EXPECT_EQ(hash64Inverse(hash64(key, mask), mask), key)
                << "bits " << bits;
        }
    }
}

TEST(Hash, SmallDomainIsPermutation)
{
    const uint64_t mask = (1 << 10) - 1;
    std::vector<bool> seen(1 << 10, false);
    for (uint64_t key = 0; key <= mask; ++key) {
        const uint64_t hashed = hash64(key, mask);
        ASSERT_LE(hashed, mask);
        EXPECT_FALSE(seen[hashed]) << "collision at " << key;
        seen[hashed] = true;
    }
}

TEST(Cigar, PushCoalesces)
{
    Cigar cigar;
    cigar.push(EditOp::Match, 3);
    cigar.push(EditOp::Match, 2);
    cigar.push(EditOp::Substitution);
    EXPECT_EQ(cigar.toString(), "5=1X");
    EXPECT_EQ(cigar.editDistance(), 1u);
    EXPECT_EQ(cigar.readLength(), 6u);
    EXPECT_EQ(cigar.refLength(), 6u);
}

TEST(Cigar, FromStringRoundTrip)
{
    const std::string text = "12=1X3D2I7=";
    EXPECT_EQ(Cigar::fromString(text).toString(), text);
    EXPECT_THROW(Cigar::fromString("=="), InputError);
    EXPECT_THROW(Cigar::fromString("3"), InputError);
    EXPECT_THROW(Cigar::fromString("3Q"), InputError);
}

TEST(Cigar, ValidateAgainstSequences)
{
    // read ACGT vs ref ACT: match ACx, delete G? Construct explicitly:
    // read  A C G T
    // ref   A C T
    // 2= 1I (G) 1= (T vs T)? ref consumed: A C T.
    Cigar cigar = Cigar::fromString("2=1I1=");
    EXPECT_TRUE(cigar.validate("ACGT", "ACT"));
    EXPECT_FALSE(cigar.validate("ACGT", "ACG"));
    // Substitution must really mismatch.
    EXPECT_FALSE(Cigar::fromString("1X3=").validate("ACGT", "ACGT"));
    EXPECT_TRUE(Cigar::fromString("4=").validate("ACGT", "ACGT"));
    // Lengths must be consumed exactly.
    EXPECT_FALSE(Cigar::fromString("3=").validate("ACGT", "ACGT"));
}

TEST(Cigar, ReverseAndAppend)
{
    Cigar a = Cigar::fromString("2=1X");
    Cigar b = Cigar::fromString("1X3=");
    a.append(b);
    EXPECT_EQ(a.toString(), "2=2X3=");
    a.reverse();
    EXPECT_EQ(a.toString(), "3=2X2=");
}

TEST(Rng, DeterministicAndInRange)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const double real = rng.nextDouble();
        EXPECT_GE(real, 0.0);
        EXPECT_LT(real, 1.0);
        const int64_t ranged = rng.nextInRange(-3, 7);
        EXPECT_GE(ranged, -3);
        EXPECT_LE(ranged, 7);
    }
}

TEST(Stats, MeanGeomeanPercentile)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(RadixSort, StableAndTheSameWithOrWithoutAPool)
{
    // Each item carries its input index, so stability shows. Keys
    // repeat heavily, and the mask leaves whole bytes constant, which
    // the sort skips.
    struct Item
    {
        uint64_t key;
        uint64_t index;

        bool operator==(const Item &) const = default;
    };
    Rng rng(3);
    util::ThreadPool one(1);
    util::ThreadPool three(3);
    util::ThreadPool eight(8);
    for (const size_t n : {0, 1, 2, 1000, 200'000}) {
        for (const uint64_t mask :
             {~uint64_t{0}, uint64_t{0xff00ff0000ff00ff}, uint64_t{0x3}}) {
            SCOPED_TRACE("n " + std::to_string(n) + ", mask " +
                         std::to_string(mask));
            std::vector<uint64_t> keys(64);
            for (uint64_t &key : keys)
                key = rng.nextU64() & mask;
            std::vector<Item> items(n);
            for (size_t i = 0; i < n; ++i)
                items[i] = {keys[rng.nextBelow(keys.size())], i};
            auto expect = items;
            std::stable_sort(expect.begin(), expect.end(),
                             [](const Item &a, const Item &b) {
                                 return a.key < b.key;
                             });
            for (util::ThreadPool *pool :
                 {(util::ThreadPool *)nullptr, &one, &three, &eight}) {
                auto work = items;
                std::vector<Item> scratch(n);
                const auto sorted = util::radixSortStable(
                    std::span<Item>(work), std::span<Item>(scratch),
                    [](const Item &item) { return item.key; }, pool);
                EXPECT_TRUE(std::ranges::equal(sorted, expect))
                    << (pool == nullptr ? 0 : pool->size()) << " workers";
            }
        }
    }
}

} // namespace
} // namespace segram
