#include "src/io/paf.h"

#include <cerrno>
#include <cstdio>
#include <ostream>

#include "src/util/check.h"
#include "src/util/tsv.h"

namespace segram::io
{

using util::parseU64Field;

void
formatPaf(std::string &out, const PafRecord &record)
{
    const char tab = '\t';
    out += record.queryName;
    out += tab;
    out += std::to_string(record.queryLen);
    out += tab;
    out += std::to_string(record.queryStart);
    out += tab;
    out += std::to_string(record.queryEnd);
    out += tab;
    out += record.strand;
    out += tab;
    out += record.targetName;
    out += tab;
    out += std::to_string(record.targetLen);
    out += tab;
    out += std::to_string(record.targetStart);
    out += tab;
    out += std::to_string(record.targetEnd);
    out += tab;
    out += std::to_string(record.matches);
    out += tab;
    out += std::to_string(record.alignmentLen);
    out += tab;
    out += std::to_string(record.mapq);
    out += "\tNM:i:";
    out += std::to_string(record.cigar.editDistance());
    out += "\tcg:Z:";
    out += record.cigar.toString();
    out += '\n';
}

PafWriter::PafWriter(std::ostream &out, size_t buffer_bytes)
    : out_(out), bufferBytes_(buffer_bytes)
{
    buffer_.reserve(bufferBytes_);
}

PafWriter::~PafWriter()
{
    try {
        flush();
    } catch (const IoError &error) {
        // A dtor cannot throw; callers that care about the tail of the
        // output must flush() explicitly (the CLI does). But bytes
        // dropped here must not vanish *silently* — one stderr line
        // makes the loss visible even to callers that forgot.
        // fprintf, not iostreams: it is noexcept-safe and independent
        // of the (possibly failed) stream this writer wraps.
        std::fprintf(stderr,
                     "segram: warning: PAF output lost on writer "
                     "destruction: %s\n",
                     error.what());
    }
}

void
PafWriter::write(const PafRecord &record)
{
    formatPaf(buffer_, record);
    ++records_;
    if (buffer_.size() >= bufferBytes_)
        flush();
}

void
PafWriter::flush()
{
    // errno is cleared so that a failure below reports *this* write's
    // cause, not a stale value from an unrelated earlier syscall.
    errno = 0;
    if (!buffer_.empty()) {
        out_.write(buffer_.data(),
                   static_cast<std::streamsize>(buffer_.size()));
        // Drop the bytes either way: on failure the sink is gone and a
        // dtor-time retry of the same buffer would fail identically.
        buffer_.clear();
    }
    // Push through the ostream too, so a flush() is observable by a
    // reader of the underlying file/pipe (as the header promises) —
    // and so a buffered-sink failure (stdio holding the bytes) is
    // detected here instead of at process exit.
    out_.flush();
    if (!out_) {
        // Capture before the message strings are built: their heap
        // allocations may overwrite errno (argument evaluation order
        // is unspecified), and the lint's errno-capture rule holds
        // this file to the same standard as the syscall paths.
        const int saved_errno = errno;
        throw IoError("PAF output stream failed (" +
                          std::to_string(records_) +
                          " records written so far)",
                      saved_errno);
    }
}

PafRecord
makePafRecord(std::string query_name, uint64_t query_len, char strand,
              std::string target_name, uint64_t target_len,
              uint64_t target_start, const Cigar &cigar)
{
    PafRecord record;
    record.queryName = std::move(query_name);
    record.queryLen = query_len;
    record.queryStart = 0;
    record.queryEnd = cigar.readLength();
    record.strand = strand;
    record.targetName = std::move(target_name);
    record.targetLen = target_len;
    record.targetStart = target_start;
    record.targetEnd = target_start + cigar.refLength();
    record.matches = cigar.count(EditOp::Match);
    record.alignmentLen = cigar.count(EditOp::Match) +
                          cigar.count(EditOp::Substitution) +
                          cigar.count(EditOp::Insertion) +
                          cigar.count(EditOp::Deletion);
    record.cigar = cigar;
    return record;
}

PafRecord
parsePafLine(std::string_view line)
{
    // formatPaf ends every record in exactly one '\n'; accept that one,
    // and name any other line break instead of letting it reach a field
    // parser as junk.
    if (line.ends_with('\n'))
        line.remove_suffix(1);
    SEGRAM_CHECK(line.find_first_of("\r\n") == std::string_view::npos,
                 "PAF line has a stray line break ('\\r' or '\\n') "
                 "besides one trailing '\\n'");
    const auto fields = util::splitTabs(line);
    SEGRAM_CHECK(fields.size() >= 12,
                 "PAF line has " + std::to_string(fields.size()) +
                     " fields, need 12");
    PafRecord record;
    record.queryName = std::string(fields[0]);
    record.queryLen = parseU64Field(fields[1], "PAF query length");
    record.queryStart = parseU64Field(fields[2], "PAF query start");
    record.queryEnd = parseU64Field(fields[3], "PAF query end");
    SEGRAM_CHECK(fields[4] == "+" || fields[4] == "-",
                 "PAF strand must be '+' or '-', got '" +
                     std::string(fields[4]) + "'");
    record.strand = fields[4][0];
    record.targetName = std::string(fields[5]);
    record.targetLen = parseU64Field(fields[6], "PAF target length");
    record.targetStart = parseU64Field(fields[7], "PAF target start");
    record.targetEnd = parseU64Field(fields[8], "PAF target end");
    record.matches = parseU64Field(fields[9], "PAF match count");
    record.alignmentLen =
        parseU64Field(fields[10], "PAF alignment length");
    record.mapq =
        static_cast<int>(parseU64Field(fields[11], "PAF mapq"));
    for (size_t i = 12; i < fields.size(); ++i) {
        const std::string_view tag = fields[i];
        if (tag.starts_with("cg:Z:"))
            record.cigar = Cigar::fromString(tag.substr(5));
    }
    // Internal consistency: a record whose intervals are inverted or
    // run past their sequence, or that claims more matches than
    // aligned columns, would silently skew `segram eval` (e.g. a
    // swapped start/end pair can land inside the correctness window
    // by accident). Reject instead.
    SEGRAM_CHECK(record.queryStart <= record.queryEnd,
                 "PAF query start " + std::to_string(record.queryStart) +
                     " > query end " + std::to_string(record.queryEnd));
    SEGRAM_CHECK(record.queryEnd <= record.queryLen,
                 "PAF query end " + std::to_string(record.queryEnd) +
                     " > query length " + std::to_string(record.queryLen));
    SEGRAM_CHECK(record.targetStart <= record.targetEnd,
                 "PAF target start " +
                     std::to_string(record.targetStart) + " > target end " +
                     std::to_string(record.targetEnd));
    SEGRAM_CHECK(record.targetEnd <= record.targetLen,
                 "PAF target end " + std::to_string(record.targetEnd) +
                     " > target length " +
                     std::to_string(record.targetLen));
    SEGRAM_CHECK(record.matches <= record.alignmentLen,
                 "PAF match count " + std::to_string(record.matches) +
                     " > alignment length " +
                     std::to_string(record.alignmentLen));
    return record;
}

std::vector<PafRecord>
readPafFile(const std::string &path)
{
    std::vector<PafRecord> records;
    util::forEachDataLine(path, [&records](std::string_view line) {
        records.push_back(parsePafLine(line));
    });
    return records;
}

} // namespace segram::io
