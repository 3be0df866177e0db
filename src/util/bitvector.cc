#include "src/util/bitvector.h"

#include <bit>

#include "src/util/check.h"

namespace segram
{

Bitvector::Bitvector(int width, bool ones)
    : width_(width), words_(bitops::wordsForWidth(width), 0)
{
    SEGRAM_CHECK(width >= 0, "Bitvector width must be non-negative");
    if (ones)
        setAllOnes();
    else
        repairPadding();
}

void
Bitvector::setAllOnes()
{
    bitops::fillOnes(words_.data(), numWords());
}

void
Bitvector::setAllZeros()
{
    for (auto &w : words_)
        w = 0;
    repairPadding();
}

bool
Bitvector::test(int pos) const
{
    SEGRAM_DCHECK(pos >= 0 && pos < width_, "bit probe out of range");
    return bitops::testBit(words_.data(), pos);
}

void
Bitvector::set(int pos, bool value)
{
    SEGRAM_DCHECK(pos >= 0 && pos < width_, "bit write out of range");
    const uint64_t mask = uint64_t{1} << (pos % bitsPerWord);
    if (value)
        words_[pos / bitsPerWord] |= mask;
    else
        words_[pos / bitsPerWord] &= ~mask;
}

void
Bitvector::shiftLeftOne()
{
    bitops::shiftLeftOne(words_.data(), words_.data(), numWords());
    repairPadding();
}

Bitvector
Bitvector::shiftedLeftOne() const
{
    Bitvector out = *this;
    out.shiftLeftOne();
    return out;
}

Bitvector &
Bitvector::operator|=(const Bitvector &other)
{
    SEGRAM_DCHECK(width_ == other.width_, "OR of mismatched widths");
    bitops::orInPlace(words_.data(), other.words_.data(), numWords());
    return *this;
}

Bitvector &
Bitvector::operator&=(const Bitvector &other)
{
    SEGRAM_DCHECK(width_ == other.width_, "AND of mismatched widths");
    bitops::andInPlace(words_.data(), other.words_.data(), numWords());
    repairPadding();
    return *this;
}

int
Bitvector::countZeros() const
{
    int ones = 0;
    for (const auto w : words_)
        ones += std::popcount(w);
    const int total = numWords() * bitsPerWord;
    // Padding bits are guaranteed 1, so they cancel out of the count.
    return width_ - (ones - (total - width_));
}

std::string
Bitvector::toString() const
{
    std::string out;
    out.reserve(width_);
    for (int pos = width_ - 1; pos >= 0; --pos)
        out.push_back(test(pos) ? '1' : '0');
    return out;
}

void
Bitvector::repairPadding()
{
    const int padding = numWords() * bitsPerWord - width_;
    if (padding > 0 && !words_.empty()) {
        const uint64_t mask = ~uint64_t{0} << (bitsPerWord - padding);
        words_.back() |= mask;
    }
}

namespace bitops
{

// The shifting ops run high-to-low: word i's carry-in is read straight
// from src[i-1] rather than carried in a register, so the iterations are
// independent (the compiler vectorizes them) and a fully aliased
// dst == src never overwrites a word a lower iteration still reads.

void
shiftLeftOne(uint64_t *dst, const uint64_t *src, int nwords)
{
    for (int i = nwords - 1; i >= 1; --i)
        dst[i] = (src[i] << 1) | (src[i - 1] >> 63);
    if (nwords > 0)
        dst[0] = src[0] << 1;
}

void
andInPlace(uint64_t *dst, const uint64_t *src, int nwords)
{
    for (int i = 0; i < nwords; ++i)
        dst[i] &= src[i];
}

void
orInPlace(uint64_t *dst, const uint64_t *src, int nwords)
{
    for (int i = 0; i < nwords; ++i)
        dst[i] |= src[i];
}

void
shiftLeftOneOr(uint64_t *dst, const uint64_t *src, const uint64_t *mask,
               int nwords)
{
    for (int i = nwords - 1; i >= 1; --i)
        dst[i] = ((src[i] << 1) | (src[i - 1] >> 63)) | mask[i];
    if (nwords > 0)
        dst[0] = (src[0] << 1) | mask[0];
}

void
shiftLeftOneOrAnd(uint64_t *dst, const uint64_t *src, const uint64_t *mask,
                  int nwords)
{
    for (int i = nwords - 1; i >= 1; --i)
        dst[i] &= ((src[i] << 1) | (src[i - 1] >> 63)) | mask[i];
    if (nwords > 0)
        dst[0] &= (src[0] << 1) | mask[0];
}

void
andShiftAnd(uint64_t *dst, const uint64_t *src, int nwords)
{
    for (int i = nwords - 1; i >= 1; --i)
        dst[i] &= src[i] & ((src[i] << 1) | (src[i - 1] >> 63));
    if (nwords > 0)
        dst[0] &= src[0] & (src[0] << 1);
}

void
fusedCell(uint64_t *dst, const uint64_t *ins, const uint64_t *ds,
          const uint64_t *match, const uint64_t *pm, int nwords)
{
    for (int i = nwords - 1; i >= 1; --i) {
        dst[i] = ((ins[i] << 1) | (ins[i - 1] >> 63)) & ds[i] &
                 ((ds[i] << 1) | (ds[i - 1] >> 63)) &
                 (((match[i] << 1) | (match[i - 1] >> 63)) | pm[i]);
    }
    if (nwords > 0) {
        dst[0] = (ins[0] << 1) & ds[0] & (ds[0] << 1) &
                 ((match[0] << 1) | pm[0]);
    }
}

void
fillOnes(uint64_t *dst, int nwords)
{
    for (int i = 0; i < nwords; ++i)
        dst[i] = ~uint64_t{0};
}

bool
testBit(const uint64_t *words, int pos)
{
    return (words[pos / 64] >> (pos % 64)) & 1;
}

void
clearBit(uint64_t *words, int pos)
{
    words[pos / 64] &= ~(uint64_t{1} << (pos % 64));
}

} // namespace bitops

} // namespace segram
