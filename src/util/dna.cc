#include "src/util/dna.h"

#include <array>

#include "src/util/check.h"

namespace segram
{

namespace
{

constexpr std::array<char, 4> baseTable = {'A', 'C', 'G', 'T'};

} // namespace

char
codeToBase(uint8_t code)
{
    SEGRAM_DCHECK(code < kDnaAlphabetSize, "base code out of range");
    return baseTable[code];
}

char
complementBase(char base)
{
    const uint8_t code = baseToCode(base);
    SEGRAM_DCHECK(code != kInvalidBaseCode,
                  "complement of a non-ACGT base");
    return codeToBase(complementCode(code));
}

std::string
reverseComplement(std::string_view seq)
{
    std::string out;
    reverseComplement(seq, out);
    return out;
}

void
reverseComplement(std::string_view seq, std::string &out)
{
    out.clear();
    out.reserve(seq.size());
    for (auto it = seq.rbegin(); it != seq.rend(); ++it)
        out.push_back(complementBase(*it));
}

bool
isValidDna(std::string_view seq)
{
    for (const char base : seq) {
        if (baseToCode(base) == kInvalidBaseCode)
            return false;
    }
    return true;
}

std::string
normalizeDna(std::string_view seq)
{
    std::string out;
    out.reserve(seq.size());
    for (const char base : seq) {
        const uint8_t code = baseToCode(base);
        out.push_back(code == kInvalidBaseCode ? 'A' : codeToBase(code));
    }
    return out;
}

} // namespace segram
