#include "src/io/vcf.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/tsv.h"

namespace segram::io
{

using util::splitTabs;

namespace
{

/**
 * @return True for ALT alleles that carry no spliceable sequence:
 *         symbolic (<DEL>, <NON_REF>), breakends (t[p[ / ]p]t), the
 *         spanning deletion '*' and the missing value '.'.
 */
bool
isSymbolicAlt(std::string_view alt)
{
    return alt.front() == '<' || alt == "*" || alt == "." ||
           alt.find_first_of("[]") != std::string_view::npos;
}

} // namespace

std::vector<VcfRecord>
readVcf(std::istream &in)
{
    std::vector<VcfRecord> records;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        const auto fields = splitTabs(line);
        SEGRAM_CHECK(fields.size() >= 5,
                     "VCF line " + std::to_string(line_no) +
                         " has fewer than 5 columns");
        VcfRecord base;
        base.chrom = std::string(fields[0]);
        try {
            base.pos = std::stoull(std::string(fields[1]));
        } catch (const std::exception &) {
            SEGRAM_CHECK(false, "VCF line " + std::to_string(line_no) +
                                    " has non-numeric POS");
        }
        SEGRAM_CHECK(base.pos >= 1, "VCF POS must be >= 1");
        base.id = std::string(fields[2]);
        base.ref = normalizeDna(fields[3]);
        SEGRAM_CHECK(!base.ref.empty(), "VCF line " +
                         std::to_string(line_no) + " has empty REF");
        // Expand multi-allelic ALT, skipping alleles without sequence
        // (a line of only those contributes no record).
        std::stringstream alts{std::string(fields[4])};
        std::string alt;
        bool any = false;
        while (std::getline(alts, alt, ',')) {
            SEGRAM_CHECK(!alt.empty(), "VCF line " +
                             std::to_string(line_no) + " has empty ALT");
            any = true;
            if (isSymbolicAlt(alt))
                continue;
            VcfRecord record = base;
            record.alt = normalizeDna(alt);
            records.push_back(std::move(record));
        }
        SEGRAM_CHECK(any, "VCF line " + std::to_string(line_no) +
                              " has empty ALT column");
    }
    return records;
}

std::vector<VcfRecord>
readVcfFile(const std::string &path)
{
    std::ifstream in(path);
    SEGRAM_CHECK(in.good(), "cannot open VCF file: " + path);
    return readVcf(in);
}

void
writeVcf(std::ostream &out, const std::vector<VcfRecord> &records)
{
    out << "##fileformat=VCFv4.2\n";
    out << "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n";
    for (const auto &record : records) {
        out << record.chrom << '\t' << record.pos << '\t'
            << (record.id.empty() ? "." : record.id) << '\t' << record.ref
            << '\t' << record.alt << "\t.\t.\t.\n";
    }
}

void
writeVcfFile(const std::string &path, const std::vector<VcfRecord> &records)
{
    std::ofstream out(path);
    SEGRAM_CHECK(out.good(), "cannot open VCF file for write: " + path);
    writeVcf(out, records);
}

} // namespace segram::io
