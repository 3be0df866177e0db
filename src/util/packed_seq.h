/**
 * @file
 * 2-bit packed DNA sequence, the storage format of the paper's character
 * table (Fig. 5): "we can store characters in the character table using a
 * 2-bit representation (A:00, C:01, G:10, T:11)".
 */

#ifndef SEGRAM_SRC_UTIL_PACKED_SEQ_H
#define SEGRAM_SRC_UTIL_PACKED_SEQ_H

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/dna.h"
#include "src/util/table_storage.h"

namespace segram
{

namespace io
{
class PackCodec;
}

/**
 * A growable DNA sequence stored at 2 bits per base. Serves both as the
 * backing store of the genome graph's character table and as a compact
 * read representation.
 *
 * The word table goes through util::TableStorage, so a PackedSeq can
 * either own its words or borrow them straight out of a memory-mapped
 * `.segram` pack (io::PackCodec is the only constructor of borrowed
 * instances); every query works identically on both.
 */
class PackedSeq
{
  public:
    PackedSeq() = default;

    /** Builds a packed sequence from an ACGT string. */
    explicit PackedSeq(std::string_view seq);

    /** Appends one base given as a character (must be ACGT). */
    void pushBase(char base);

    /** Appends one base given as a 2-bit code. */
    void pushCode(uint8_t code);

    /** Appends a whole ACGT string. */
    void append(std::string_view seq);

    /** @return Number of bases stored. */
    size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** @return The 2-bit code of base @p idx. */
    uint8_t codeAt(size_t idx) const;

    /** @return The character of base @p idx. */
    char baseAt(size_t idx) const { return codeToBase(codeAt(idx)); }

    /** @return The sub-sequence [start, start+len) as an ACGT string. */
    std::string substr(size_t start, size_t len) const;

    /**
     * Buffer-reuse variant: writes the bases [@p start, @p start+@p len)
     * into @p out (cleared first, capacity retained across calls).
     */
    void substr(size_t start, size_t len, std::string &out) const;

    /** @return The whole sequence as an ACGT string. */
    std::string toString() const { return substr(0, size_); }

    /** @return Storage footprint in bytes (owned heap or mapped file). */
    size_t memoryBytes() const { return words_.bytes(); }

    bool
    operator==(const PackedSeq &other) const
    {
        return size_ == other.size_ && words_ == other.words_;
    }

  private:
    friend class io::PackCodec;

    static constexpr int basesPerWord = 32;

    util::TableStorage<uint64_t> words_;
    size_t size_ = 0;
};

} // namespace segram

#endif // SEGRAM_SRC_UTIL_PACKED_SEQ_H
