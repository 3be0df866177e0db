/**
 * @file
 * Genetic variants in the canonical form the graph builder consumes.
 *
 * VCF records carry padding bases (a deletion of "CT" is written as
 * REF="ACT", ALT="A"); canonicalization strips the shared prefix/suffix
 * so each variant is a pure substitution, insertion or deletion with a
 * 0-based reference coordinate.
 */

#ifndef SEGRAM_SRC_GRAPH_VARIANTS_H
#define SEGRAM_SRC_GRAPH_VARIANTS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/io/vcf.h"

namespace segram::graph
{

/** Classification of a canonical variant. */
enum class VariantKind : uint8_t
{
    Substitution, ///< replaces ref bases with the same count of alt bases
    Insertion,    ///< inserts alt bases at a point (ref part empty)
    Deletion,     ///< removes ref bases (alt part empty)
};

/**
 * A canonical variant. For substitutions, ref and alt are non-empty and
 * the same length; for insertions ref is empty (alt inserted *before*
 * reference position pos); for deletions alt is empty.
 */
struct Variant
{
    uint64_t pos = 0; ///< 0-based reference coordinate
    std::string ref;
    std::string alt;

    bool operator==(const Variant &) const = default;

    VariantKind
    kind() const
    {
        if (ref.empty())
            return VariantKind::Insertion;
        if (alt.empty())
            return VariantKind::Deletion;
        return VariantKind::Substitution;
    }

    /** @return Number of reference bases consumed. */
    uint64_t refSpan() const { return ref.size(); }
};

/**
 * Canonicalizes one VCF record: converts to 0-based coordinates and
 * strips the common prefix and suffix of REF/ALT.
 *
 * @return The canonical variant, or std::nullopt-like empty variant with
 *         ref==alt=="" when REF equals ALT (a no-op record).
 */
Variant canonicalize(const io::VcfRecord &record);

/**
 * Converts VCF records for one chromosome into a sorted, non-overlapping
 * canonical variant list. Overlapping variants are resolved by keeping
 * the first (by position, then input order) and dropping the rest — the
 * same effect as `vg construct`'s flat-alternative handling for the
 * conflict-free subset.
 *
 * @param records    VCF records (any order); entries whose CHROM differs
 *                   from @p chrom are ignored.
 * @param chrom      Chromosome name to select.
 * @param ref_len    Reference length; variants extending past it are
 *                   dropped.
 * @param[out] dropped Optional counter of dropped (overlapping or
 *                     out-of-range or no-op) records.
 */
std::vector<Variant> canonicalizeSet(const std::vector<io::VcfRecord> &records,
                                     const std::string &chrom,
                                     uint64_t ref_len,
                                     uint64_t *dropped = nullptr);

/**
 * canonicalizeSet() over records that all belong to the chromosome:
 * the same variants and drop count as the CHROM-filtering overload,
 * given the chromosome's records in file order.
 */
std::vector<Variant>
canonicalizeSet(std::span<const io::VcfRecord *const> records,
                uint64_t ref_len, uint64_t *dropped = nullptr);

/**
 * VCF records grouped by CHROM in one pass, each group in file order,
 * so that a multi-chromosome build reads the VCF once rather than once
 * per chromosome. Holds pointers into (and views of) the records:
 * they must outlive it.
 */
class VcfByChrom
{
  public:
    explicit VcfByChrom(const std::vector<io::VcfRecord> &records);

    /** @return The records of @p chrom in file order; empty if none. */
    std::span<const io::VcfRecord *const>
    records(std::string_view chrom) const;

  private:
    std::unordered_map<std::string_view, std::vector<const io::VcfRecord *>>
        groups_;
};

/** @return @p variant re-encoded as a (padded) VCF record. */
io::VcfRecord toVcfRecord(const Variant &variant, const std::string &chrom,
                          const std::string &reference);

} // namespace segram::graph

#endif // SEGRAM_SRC_GRAPH_VARIANTS_H
