#include "src/align/bitalign_core.h"

#include "src/util/bitvector.h"
#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::align
{

using bitops::clearBit;

PatternBitmasks
PatternBitmasks::build(std::string_view pattern)
{
    PatternBitmasks out;
    out.assign(pattern);
    return out;
}

void
PatternBitmasks::assign(std::string_view pattern)
{
    SEGRAM_CHECK(!pattern.empty(), "pattern must be non-empty");
    m = static_cast<int>(pattern.size());
    nwords = bitops::wordsForWidth(m);
    for (auto &mask : masks) {
        mask.assign(nwords, ~uint64_t{0});
    }
    for (int b = 0; b < m; ++b) {
        const char base = pattern[m - 1 - b];
        const uint8_t code = baseToCode(base);
        SEGRAM_CHECK(code != kInvalidBaseCode,
                     "pattern contains a non-ACGT character");
        clearBit(masks[code].data(), b);
    }
}

} // namespace segram::align
