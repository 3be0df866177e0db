/**
 * @file
 * Minimal PAF (Pairwise mApping Format) output — the de-facto mapping
 * result format minimap2 introduced. The CLI writes one PAF line per
 * mapped read so downstream genomics tooling can consume SeGraM output
 * directly.
 */

#ifndef SEGRAM_SRC_IO_PAF_H
#define SEGRAM_SRC_IO_PAF_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/cigar.h"

namespace segram::io
{

/** One PAF record. */
struct PafRecord
{
    std::string queryName;
    uint64_t queryLen = 0;
    uint64_t queryStart = 0;
    uint64_t queryEnd = 0;
    char strand = '+';
    std::string targetName;
    uint64_t targetLen = 0;
    uint64_t targetStart = 0;
    uint64_t targetEnd = 0;
    uint64_t matches = 0;      ///< '=' count
    uint64_t alignmentLen = 0; ///< '='+'X'+'I'+'D' count
    int mapq = 60;
    Cigar cigar;               ///< emitted as the cg:Z tag
};

/** Appends one PAF line (with NM and cg:Z tags) to @p out. */
void formatPaf(std::string &out, const PafRecord &record);

/**
 * Buffered batch PAF writer: lines accumulate in a string buffer that
 * is handed to the stream in large writes, so the streaming pipeline
 * pays one syscall-sized write per buffer instead of per record. The
 * destructor flushes; call flush() explicitly to observe output
 * earlier (e.g. when tailing a live mapping run).
 *
 * Stream failures are never swallowed: write()/flush() check the
 * stream after handing data over and throw IoError (with the write's
 * errno when the platform preserved it) the moment the sink fails — a
 * full disk or a closed pipe surfaces at the offending record, not as
 * silently truncated output. The destructor still flushes as a last
 * resort but must not throw; call flush() once after the final write()
 * to *observe* a failure of the tail of the output.
 */
class PafWriter
{
  public:
    /** @param buffer_bytes Flush threshold (not a hard cap). */
    explicit PafWriter(std::ostream &out,
                       size_t buffer_bytes = 1 << 20);

    /** Flushes; a flush failure cannot throw here (dtor), so it is
     *  reported as a one-line stderr diagnostic instead of vanishing.
     *  flush() explicitly first if the outcome must be actionable. */
    ~PafWriter();

    PafWriter(const PafWriter &) = delete;
    PafWriter &operator=(const PafWriter &) = delete;

    /**
     * Buffers one record, flushing when over the threshold.
     * @throws IoError when a triggered flush finds the stream failed.
     */
    void write(const PafRecord &record);

    /**
     * Drains the buffer and flushes the stream.
     * @throws IoError when the stream is in (or enters) a failed
     *         state; the buffered bytes are dropped — the sink is
     *         gone, and retrying the same write from the destructor
     *         would only fail again.
     */
    void flush();

    /** Records accepted by write() — including any whose bytes were
     *  lost by a failed flush (the throw reports that loss). */
    uint64_t recordsWritten() const { return records_; }

  private:
    std::ostream &out_;
    std::string buffer_;
    size_t bufferBytes_;
    uint64_t records_ = 0;
};

/**
 * Convenience: fills the alignment-derived fields of a record from a
 * cigar (matches, alignmentLen, queryEnd, targetEnd).
 */
PafRecord makePafRecord(std::string query_name, uint64_t query_len,
                        char strand, std::string target_name,
                        uint64_t target_len, uint64_t target_start,
                        const Cigar &cigar);

/**
 * Parses one PAF line (the 12 mandatory fields plus optional tags; a
 * `cg:Z` tag, when present, is parsed into the cigar). The accuracy
 * evaluator consumes mapper output through this, so the writer and
 * parser round-trip each other.
 *
 * @throws InputError on missing fields, non-numeric columns or a bad
 *         strand character.
 */
PafRecord parsePafLine(std::string_view line);

/**
 * Reads a whole PAF file (blank lines skipped).
 *
 * @throws InputError when the file is unreadable or any line is
 *         malformed (reported with its 1-based line number).
 */
std::vector<PafRecord> readPafFile(const std::string &path);

} // namespace segram::io

#endif // SEGRAM_SRC_IO_PAF_H
