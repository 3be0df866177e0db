#include "src/graph/variants.h"

#include <algorithm>

#include "src/util/check.h"

namespace segram::graph
{

Variant
canonicalize(const io::VcfRecord &record)
{
    SEGRAM_CHECK(record.pos >= 1, "VCF POS must be 1-based");
    std::string ref = record.ref;
    std::string alt = record.alt;
    uint64_t pos = record.pos - 1;

    // Strip common suffix first (keeps coordinates left-anchored) ...
    while (!ref.empty() && !alt.empty() && ref.back() == alt.back()) {
        ref.pop_back();
        alt.pop_back();
    }
    // ... then the common prefix (typically the VCF padding base).
    size_t prefix = 0;
    while (prefix < ref.size() && prefix < alt.size() &&
           ref[prefix] == alt[prefix]) {
        ++prefix;
    }
    ref.erase(0, prefix);
    alt.erase(0, prefix);
    pos += prefix;

    return Variant{pos, std::move(ref), std::move(alt)};
}

std::vector<Variant>
canonicalizeSet(const std::vector<io::VcfRecord> &records,
                const std::string &chrom, uint64_t ref_len,
                uint64_t *dropped)
{
    std::vector<const io::VcfRecord *> selected;
    for (const auto &record : records)
        if (record.chrom == chrom)
            selected.push_back(&record);
    return canonicalizeSet(selected, ref_len, dropped);
}

VcfByChrom::VcfByChrom(const std::vector<io::VcfRecord> &records)
{
    for (const auto &record : records)
        groups_[record.chrom].push_back(&record);
}

std::span<const io::VcfRecord *const>
VcfByChrom::records(std::string_view chrom) const
{
    const auto group = groups_.find(chrom);
    if (group == groups_.end())
        return {};
    return group->second;
}

std::vector<Variant>
canonicalizeSet(std::span<const io::VcfRecord *const> records,
                uint64_t ref_len, uint64_t *dropped)
{
    uint64_t drop_count = 0;
    std::vector<Variant> variants;
    for (const io::VcfRecord *record : records) {
        Variant variant = canonicalize(*record);
        if (variant.ref.empty() && variant.alt.empty()) {
            ++drop_count; // no-op record (REF == ALT)
            continue;
        }
        if (variant.pos + variant.refSpan() > ref_len ||
            (variant.kind() == VariantKind::Insertion &&
             variant.pos > ref_len)) {
            ++drop_count;
            continue;
        }
        variants.push_back(std::move(variant));
    }

    std::stable_sort(variants.begin(), variants.end(),
                     [](const Variant &a, const Variant &b) {
                         return a.pos < b.pos;
                     });

    // Drop overlaps: a variant must start at or after the end of the
    // previously kept one. Two insertions at the same point also clash
    // (they would create ambiguous ordering), keep the first.
    std::vector<Variant> kept;
    uint64_t next_free = 0;
    bool first = true;
    for (auto &variant : variants) {
        const uint64_t start = variant.pos;
        // Insertions occupy the boundary point; require strict progress
        // past the previous variant's footprint.
        const bool overlaps = !first && start < next_free;
        const bool same_point_insertion =
            !first && start == next_free &&
            variant.kind() == VariantKind::Insertion && !kept.empty() &&
            kept.back().pos == start &&
            kept.back().kind() == VariantKind::Insertion;
        if (overlaps || same_point_insertion) {
            ++drop_count;
            continue;
        }
        next_free = start + std::max<uint64_t>(variant.refSpan(),
                                               variant.ref.empty() ? 0 : 1);
        // Give insertions a zero footprint but remember the point so a
        // second insertion at the same point is rejected above.
        if (variant.kind() == VariantKind::Insertion)
            next_free = start;
        first = false;
        kept.push_back(std::move(variant));
    }
    if (dropped != nullptr)
        *dropped = drop_count;
    return kept;
}

io::VcfRecord
toVcfRecord(const Variant &variant, const std::string &chrom,
            const std::string &reference)
{
    io::VcfRecord record;
    record.chrom = chrom;
    // std::string(1, '.') sidesteps a GCC 12 -Wrestrict false positive
    // on const char* assignment (GCC bug 105329).
    record.id = std::string(1, '.');
    if (variant.kind() == VariantKind::Substitution) {
        record.pos = variant.pos + 1;
        record.ref = variant.ref;
        record.alt = variant.alt;
        return record;
    }
    // Indels get the standard left padding base. A variant at position 0
    // would need right padding; the simulators never emit one, and we
    // reject it here to keep the encoding unambiguous.
    SEGRAM_CHECK(variant.pos >= 1, "cannot pad an indel at position 0");
    const char pad = reference.at(variant.pos - 1);
    record.pos = variant.pos; // 1-based coordinate of the padding base
    record.ref = std::string(1, pad) + variant.ref;
    record.alt = std::string(1, pad) + variant.alt;
    return record;
}

} // namespace segram::graph
