/**
 * @file
 * The DNA alphabet: 2-bit base codes and conversions.
 *
 * SeGraM stores all reference characters with the 2-bit encoding
 * A:00, C:01, G:10, T:11 (paper, Section 5). Everything in this repo that
 * touches sequence data goes through these helpers so the encoding is
 * defined in exactly one place.
 */

#ifndef SEGRAM_SRC_UTIL_DNA_H
#define SEGRAM_SRC_UTIL_DNA_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace segram
{

/** Number of symbols in the DNA alphabet. */
constexpr int kDnaAlphabetSize = 4;

/** Sentinel returned by baseToCode for non-ACGT characters. */
constexpr uint8_t kInvalidBaseCode = 4;

/**
 * The one character-to-code table: 0..3 for A/C/G/T in either case,
 * kInvalidBaseCode for every other byte.
 */
inline constexpr std::array<uint8_t, 256> kBaseCodeTable = [] {
    std::array<uint8_t, 256> table{};
    for (auto &entry : table)
        entry = kInvalidBaseCode;
    table['A'] = 0; table['a'] = 0;
    table['C'] = 1; table['c'] = 1;
    table['G'] = 2; table['g'] = 2;
    table['T'] = 3; table['t'] = 3;
    return table;
}();

/**
 * Maps a base character to its 2-bit code.
 *
 * @param base An ASCII base; lower case accepted.
 * @return 0..3 for A/C/G/T, kInvalidBaseCode otherwise (including 'N').
 */
inline uint8_t
baseToCode(char base)
{
    return kBaseCodeTable[static_cast<uint8_t>(base)];
}

/**
 * Maps a 2-bit code back to its upper-case base character.
 *
 * @param code A value in 0..3.
 */
char codeToBase(uint8_t code);

/** @return The 2-bit code of the Watson-Crick complement of @p code. */
inline uint8_t
complementCode(uint8_t code)
{
    return 3 - code;
}

/** @return The complement base of @p base (A<->T, C<->G). */
char complementBase(char base);

/** @return The reverse complement of @p seq (ACGT only). */
std::string reverseComplement(std::string_view seq);

/**
 * Buffer-reuse variant: writes the reverse complement of @p seq into
 * @p out (cleared first, capacity retained across calls).
 */
void reverseComplement(std::string_view seq, std::string &out);

/** @return True iff every character of @p seq is A, C, G or T. */
bool isValidDna(std::string_view seq);

/**
 * Normalizes a sequence to upper-case ACGT, replacing any other character
 * (e.g. 'N') with 'A'. Used when ingesting external FASTA data, mirroring
 * how mappers mask ambiguous bases.
 */
std::string normalizeDna(std::string_view seq);

} // namespace segram

#endif // SEGRAM_SRC_UTIL_DNA_H
