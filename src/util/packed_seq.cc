#include "src/util/packed_seq.h"


#include "src/util/check.h"

namespace segram
{

PackedSeq::PackedSeq(std::string_view seq)
{
    append(seq);
}

void
PackedSeq::pushBase(char base)
{
    const uint8_t code = baseToCode(base);
    SEGRAM_CHECK(code != kInvalidBaseCode,
                 std::string("invalid DNA base: ") + base);
    pushCode(code);
}

void
PackedSeq::pushCode(uint8_t code)
{
    SEGRAM_DCHECK(code < kDnaAlphabetSize, "2-bit code out of range");
    auto &words = words_.vec();
    const size_t word = size_ / basesPerWord;
    const int slot = static_cast<int>(size_ % basesPerWord);
    if (word >= words.size())
        words.push_back(0);
    words[word] |= uint64_t{code} << (2 * slot);
    ++size_;
}

void
PackedSeq::append(std::string_view seq)
{
    for (const char base : seq)
        pushBase(base);
}

uint8_t
PackedSeq::codeAt(size_t idx) const
{
    SEGRAM_DCHECK(idx < size_, "base index out of range");
    const size_t word = idx / basesPerWord;
    const int slot = static_cast<int>(idx % basesPerWord);
    return (words_[word] >> (2 * slot)) & 0x3;
}

std::string
PackedSeq::substr(size_t start, size_t len) const
{
    std::string out;
    substr(start, len, out);
    return out;
}

void
PackedSeq::substr(size_t start, size_t len, std::string &out) const
{
    SEGRAM_DCHECK(start + len <= size_, "substring out of range");
    out.clear();
    out.reserve(len);
    for (size_t i = start; i < start + len; ++i)
        out.push_back(baseAt(i));
}

} // namespace segram
