/**
 * @file
 * Tests for the io substrate: FASTA, VCF and GFA parsing/writing,
 * including malformed-input failure injection.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/io/fasta.h"
#include "src/io/fastq.h"
#include "src/io/fastx.h"
#include "src/io/gfa.h"
#include "src/io/paf.h"
#include "src/io/vcf.h"
#include "src/util/check.h"

namespace segram::io
{
namespace
{

TEST(Fasta, ParsesRecords)
{
    std::istringstream in(">chr1 description here\nACGT\nacgt\n>chr2\nTTTT\n");
    const auto records = readFasta(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "chr1");
    EXPECT_EQ(records[0].seq, "ACGTACGT");
    EXPECT_EQ(records[1].name, "chr2");
    EXPECT_EQ(records[1].seq, "TTTT");
}

TEST(Fasta, NormalizesAmbiguousBases)
{
    std::istringstream in(">x\nACGNN\n");
    EXPECT_EQ(readFasta(in)[0].seq, "ACGAA");
}

TEST(Fasta, HandlesCrlf)
{
    std::istringstream in(">x\r\nACGT\r\n");
    EXPECT_EQ(readFasta(in)[0].seq, "ACGT");
}

TEST(Fasta, RoundTrip)
{
    const std::vector<FastaRecord> records = {
        {"a", "ACGTACGTACGT"}, {"b", "TT"}};
    std::ostringstream out;
    writeFasta(out, records, 5);
    std::istringstream in(out.str());
    EXPECT_EQ(readFasta(in), records);
}

TEST(Fasta, RejectsMalformed)
{
    std::istringstream data_before_header("ACGT\n");
    EXPECT_THROW(readFasta(data_before_header), InputError);
    std::istringstream empty_record(">x\n>y\nAC\n");
    EXPECT_THROW(readFasta(empty_record), InputError);
    std::istringstream trailing_empty(">x\nAC\n>y\n");
    EXPECT_THROW(readFasta(trailing_empty), InputError);
    EXPECT_THROW(readFastaFile("/nonexistent/path.fa"), InputError);
}

TEST(Vcf, ParsesAndExpandsMultiAllelic)
{
    std::istringstream in(
        "##fileformat=VCFv4.2\n"
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n"
        "chr1\t5\trs1\tA\tG\t.\t.\t.\n"
        "chr1\t9\t.\tAC\tA,ACT\t.\t.\t.\n");
    const auto records = readVcf(in);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].pos, 5u);
    EXPECT_TRUE(records[0].isSnp());
    EXPECT_TRUE(records[1].isDeletion());
    EXPECT_TRUE(records[2].isInsertion());
    EXPECT_EQ(records[2].alt, "ACT");
}

TEST(Vcf, SkipsAltAllelesWithoutSequence)
{
    // Symbolic alleles, breakends, '*' and '.' carry no sequence to
    // splice in; normalizing them would splice poly-A into the graph.
    std::istringstream in(
        "chr1\t5\t.\tA\tG,<NON_REF>\t.\t.\t.\n"
        "chr1\t7\t.\tAC\t<DEL>\t.\t.\t.\n"
        "chr1\t8\t.\tC\t*\t.\t.\t.\n"
        "chr1\t9\t.\tG\t.\t.\t.\t.\n"
        "chr1\t10\t.\tG\tG[chr2:100[\t.\t.\t.\n"
        "chr1\t11\t.\tN\tG\t.\t.\t.\n");
    const auto records = readVcf(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].pos, 5u);
    EXPECT_EQ(records[0].ref, "A");
    EXPECT_EQ(records[0].alt, "G");
    // N in REF normalizes to A.
    EXPECT_EQ(records[1].pos, 11u);
    EXPECT_EQ(records[1].ref, "A");
    EXPECT_EQ(records[1].alt, "G");

    // Empty ALT fields still raise.
    std::istringstream empty_alt("chr1\t5\t.\tA\tG,,T\t.\t.\t.\n");
    EXPECT_THROW(readVcf(empty_alt), InputError);
    std::istringstream empty_column("chr1\t5\t.\tA\t\t.\t.\t.\n");
    EXPECT_THROW(readVcf(empty_column), InputError);
}

TEST(Vcf, RoundTrip)
{
    const std::vector<VcfRecord> records = {
        {"chr1", 5, "rs1", "A", "G"},
        {"chr1", 9, ".", "AC", "A"},
    };
    std::ostringstream out;
    writeVcf(out, records);
    std::istringstream in(out.str());
    EXPECT_EQ(readVcf(in), records);
}

TEST(Vcf, RejectsMalformed)
{
    std::istringstream short_line("chr1\t5\tx\tA\n");
    EXPECT_THROW(readVcf(short_line), InputError);
    std::istringstream bad_pos("chr1\tfoo\tx\tA\tG\n");
    EXPECT_THROW(readVcf(bad_pos), InputError);
    std::istringstream zero_pos("chr1\t0\tx\tA\tG\n");
    EXPECT_THROW(readVcf(zero_pos), InputError);
    EXPECT_THROW(readVcfFile("/nonexistent/path.vcf"), InputError);
}

TEST(Gfa, ParsesSegmentsAndLinks)
{
    std::istringstream in(
        "H\tVN:Z:1.0\n"
        "S\t1\tACGT\n"
        "S\t2\tTT\n"
        "L\t1\t+\t2\t+\t0M\n");
    const auto doc = readGfa(in);
    ASSERT_EQ(doc.segments.size(), 2u);
    ASSERT_EQ(doc.links.size(), 1u);
    EXPECT_EQ(doc.segments[0].seq, "ACGT");
    EXPECT_EQ(doc.links[0].from, "1");
    EXPECT_EQ(doc.links[0].to, "2");
}

TEST(Gfa, RoundTrip)
{
    GfaDocument doc;
    doc.segments = {{"1", "ACGT"}, {"2", "GG"}, {"3", "T"}};
    doc.links = {{"1", "2"}, {"2", "3"}, {"1", "3"}};
    std::ostringstream out;
    writeGfa(out, doc);
    std::istringstream in(out.str());
    EXPECT_EQ(readGfa(in), doc);
}

TEST(Gfa, RejectsMalformed)
{
    std::istringstream dup("S\t1\tAC\nS\t1\tGG\n");
    EXPECT_THROW(readGfa(dup), InputError);
    std::istringstream reverse_link("S\t1\tAC\nS\t2\tGG\nL\t1\t+\t2\t-\t0M\n");
    EXPECT_THROW(readGfa(reverse_link), InputError);
    std::istringstream overlap("S\t1\tAC\nS\t2\tGG\nL\t1\t+\t2\t+\t3M\n");
    EXPECT_THROW(readGfa(overlap), InputError);
    std::istringstream dangling("S\t1\tAC\nL\t1\t+\t9\t+\t0M\n");
    EXPECT_THROW(readGfa(dangling), InputError);
    std::istringstream no_seq("S\t1\t*\n");
    EXPECT_THROW(readGfa(no_seq), InputError);
    std::istringstream unknown("Z\tfoo\n");
    EXPECT_THROW(readGfa(unknown), InputError);
}

TEST(Gfa, ParsesPathLines)
{
    std::istringstream in(
        "S\t1\tACGT\n"
        "S\t2\tTT\n"
        "S\t3\tGG\n"
        "L\t1\t+\t2\t+\t0M\n"
        "L\t2\t+\t3\t+\t0M\n"
        "P\tchr1\t1+,2+,3+\t*\n");
    const auto doc = readGfa(in);
    ASSERT_EQ(doc.paths.size(), 1u);
    EXPECT_EQ(doc.paths[0].name, "chr1");
    EXPECT_EQ(doc.paths[0].steps,
              (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Gfa, AcceptsTrivialOverlapLists)
{
    // The GFA1 spec writes one overlap per step pair ("0M,0M") —
    // vg view and other exporters emit exactly that.
    std::istringstream in(
        "S\t1\tACGT\nS\t2\tTT\nS\t3\tGG\n"
        "L\t1\t+\t2\t+\t0M\nL\t2\t+\t3\t+\t0M\n"
        "P\tchr1\t1+,2+,3+\t0M,0M\n");
    const auto doc = readGfa(in);
    ASSERT_EQ(doc.paths.size(), 1u);
    EXPECT_EQ(doc.paths[0].steps.size(), 3u);
    // A non-trivial overlap anywhere in the list is still rejected.
    std::istringstream bad(
        "S\t1\tACGT\nS\t2\tTT\nS\t3\tGG\n"
        "P\tchr1\t1+,2+,3+\t0M,3M\n");
    EXPECT_THROW(readGfa(bad), InputError);
}

TEST(Gfa, ParsesWalkLines)
{
    std::istringstream in(
        "S\ts1\tACGT\n"
        "S\ts2\tTT\n"
        "L\ts1\t+\ts2\t+\t0M\n"
        "W\tsampleA\t1\tchr2\t0\t6\t>s1>s2\n"
        "W\t*\t0\tchrX\t0\t6\t>s1>s2\n");
    const auto doc = readGfa(in);
    ASSERT_EQ(doc.paths.size(), 2u);
    EXPECT_EQ(doc.paths[0].name, "sampleA#1#chr2");
    EXPECT_EQ(doc.paths[0].steps,
              (std::vector<std::string>{"s1", "s2"}));
    EXPECT_EQ(doc.paths[1].name, "chrX");
}

TEST(Gfa, PathRoundTrip)
{
    GfaDocument doc;
    doc.segments = {{"1", "ACGT"}, {"2", "GG"}, {"3", "T"}};
    doc.links = {{"1", "2"}, {"2", "3"}, {"1", "3"}};
    doc.paths = {{"chr1", {"1", "2", "3"}}, {"alt1", {"1", "3"}}};
    std::ostringstream out;
    writeGfa(out, doc);
    std::istringstream in(out.str());
    EXPECT_EQ(readGfa(in), doc);
}

TEST(Gfa, RejectsMalformedPaths)
{
    // Dangling path step: names a segment that was never declared.
    std::istringstream dangling_step("S\t1\tAC\nP\tchr\t1+,9+\t*\n");
    EXPECT_THROW(readGfa(dangling_step), InputError);
    // Reverse-oriented path step.
    std::istringstream reverse_step(
        "S\t1\tAC\nS\t2\tGG\nL\t1\t+\t2\t+\t0M\nP\tchr\t1+,2-\t*\n");
    EXPECT_THROW(readGfa(reverse_step), InputError);
    // Duplicate path names (P/P and P/W).
    std::istringstream dup_path(
        "S\t1\tAC\nP\tchr\t1+\t*\nP\tchr\t1+\t*\n");
    EXPECT_THROW(readGfa(dup_path), InputError);
    std::istringstream dup_walk(
        "S\t1\tAC\nP\tchr\t1+\t*\nW\t*\t0\tchr\t0\t2\t>1\n");
    EXPECT_THROW(readGfa(dup_walk), InputError);
    // Empty step list and short records.
    std::istringstream no_steps("S\t1\tAC\nP\tchr\t\t*\n");
    EXPECT_THROW(readGfa(no_steps), InputError);
    std::istringstream short_p("P\tchr\n");
    EXPECT_THROW(readGfa(short_p), InputError);
    std::istringstream short_w("W\ta\t0\tchr\n");
    EXPECT_THROW(readGfa(short_w), InputError);
    // Reverse-oriented walk step.
    std::istringstream reverse_walk(
        "S\t1\tAC\nS\t2\tGG\nW\t*\t0\tchr\t0\t4\t>1<2\n");
    EXPECT_THROW(readGfa(reverse_walk), InputError);
}

TEST(Fastq, ParsesRecords)
{
    std::istringstream in(
        "@read1 extra stuff\nACGT\n+\nIIII\n@read2\nTTNA\n+anything\n"
        "!!!!\n");
    const auto records = readFastq(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "read1");
    EXPECT_EQ(records[0].seq, "ACGT");
    EXPECT_EQ(records[0].qual, "IIII");
    EXPECT_EQ(records[1].seq, "TTAA"); // N normalized
}

TEST(Fastq, RoundTrip)
{
    const std::vector<FastqRecord> records = {
        {"a", "ACGTAC", "IIIIII"}, {"b", "TT", "!!"}};
    std::ostringstream out;
    writeFastq(out, records);
    std::istringstream in(out.str());
    EXPECT_EQ(readFastq(in), records);
}

TEST(Fastq, RejectsMalformed)
{
    std::istringstream no_at(">x\nACGT\n+\nIIII\n");
    EXPECT_THROW(readFastq(no_at), InputError);
    std::istringstream truncated("@x\nACGT\n+\n");
    EXPECT_THROW(readFastq(truncated), InputError);
    std::istringstream bad_plus("@x\nACGT\nIIII\nIIII\n");
    EXPECT_THROW(readFastq(bad_plus), InputError);
    std::istringstream qual_mismatch("@x\nACGT\n+\nII\n");
    EXPECT_THROW(readFastq(qual_mismatch), InputError);
    EXPECT_THROW(readFastqFile("/nonexistent/reads.fq"), InputError);
}

TEST(Fastx, StreamsFastaIncrementally)
{
    std::istringstream in(
        ">chr1 desc\nACGT\nacgt\n\n>chr2\nTT\nTT\n");
    FastxReader reader(in);
    EXPECT_EQ(reader.format(), FastxFormat::Fasta);
    FastxRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.name, "chr1");
    EXPECT_EQ(record.seq, "ACGTACGT");
    EXPECT_TRUE(record.qual.empty());
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.name, "chr2");
    EXPECT_EQ(record.seq, "TTTT");
    EXPECT_FALSE(reader.next(record));
    EXPECT_FALSE(reader.next(record)); // stays at end
}

TEST(Fastx, StreamsFastqIncrementally)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2 x\nTTNA\n+sep\n!!!!\n");
    FastxReader reader(in);
    EXPECT_EQ(reader.format(), FastxFormat::Fastq);
    FastxRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.name, "r1");
    EXPECT_EQ(record.seq, "ACGT");
    EXPECT_EQ(record.qual, "IIII");
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.name, "r2");
    EXPECT_EQ(record.seq, "TTAA"); // N normalized
    EXPECT_FALSE(reader.next(record));
}

TEST(Fastx, NextBatchAppendsUpToLimit)
{
    std::istringstream in(">a\nAC\n>b\nGG\n>c\nTT\n");
    FastxReader reader(in);
    std::vector<FastxRecord> batch;
    EXPECT_EQ(reader.nextBatch(batch, 2), 2u);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].name, "a");
    EXPECT_EQ(batch[1].name, "b");
    // Appends (no clear), and the tail is shorter than the limit.
    EXPECT_EQ(reader.nextBatch(batch, 2), 1u);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[2].name, "c");
    EXPECT_EQ(reader.nextBatch(batch, 2), 0u);
}

TEST(Fastx, ForcedFormatRejectsTheOther)
{
    std::istringstream fastq_as_fasta("@x\nACGT\n+\nIIII\n");
    FastxReader forced_fasta(fastq_as_fasta, FastxFormat::Fasta);
    FastxRecord record;
    EXPECT_THROW(forced_fasta.next(record), InputError);

    std::istringstream fasta_as_fastq(">x\nACGT\n");
    FastxReader forced_fastq(fasta_as_fastq, FastxFormat::Fastq);
    EXPECT_THROW(forced_fastq.next(record), InputError);
}

TEST(Fastx, SniffRejectsJunkAndEmpty)
{
    std::istringstream junk("hello\n");
    EXPECT_THROW(FastxReader reader(junk), InputError);
    std::istringstream empty("");
    EXPECT_THROW(FastxReader reader(empty), InputError);
    EXPECT_THROW(FastxReader("/nonexistent/reads.fq"), InputError);
}

TEST(Fastx, MalformedMidStreamThrowsAfterGoodRecords)
{
    std::istringstream in(">a\nACGT\n>broken\n>c\nTT\n");
    FastxReader reader(in);
    FastxRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.name, "a");
    EXPECT_THROW(reader.next(record), InputError);
}

TEST(Fastx, CrlfLineEndingsAreStripped)
{
    // Windows-written reads files: every line ends "\r\n". The '\r'
    // must not leak into names, sequences or qualities.
    std::istringstream fasta(">a desc\r\nACGT\r\nGG\r\n>b\r\nTT\r\n");
    FastxReader fasta_reader(fasta);
    FastxRecord record;
    ASSERT_TRUE(fasta_reader.next(record));
    EXPECT_EQ(record.name, "a");
    EXPECT_EQ(record.seq, "ACGTGG");
    ASSERT_TRUE(fasta_reader.next(record));
    EXPECT_EQ(record.name, "b");
    EXPECT_EQ(record.seq, "TT");
    EXPECT_FALSE(fasta_reader.next(record));

    std::istringstream fastq("@r1\r\nACGT\r\n+\r\nIIII\r\n");
    FastxReader fastq_reader(fastq);
    ASSERT_TRUE(fastq_reader.next(record));
    EXPECT_EQ(record.name, "r1");
    EXPECT_EQ(record.seq, "ACGT");
    EXPECT_EQ(record.qual, "IIII");
}

TEST(Fastx, MultiLineFastaSpanningManyShortLines)
{
    // 60-char wrapped FASTA plus degenerate 1-char lines must
    // concatenate in order.
    std::istringstream in(">x\nA\nC\nG\nT\nACGTACGT\nA\n");
    FastxReader reader(in);
    FastxRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.seq, "ACGTACGTACGTA");
    EXPECT_FALSE(reader.next(record));
}

TEST(Fastx, EmptySequencesAreRejectedDeliberately)
{
    // A header with no sequence lines (mid-file and at end of file)
    // and an empty FASTQ sequence: all must throw InputError, never
    // produce an empty record or crash.
    std::istringstream empty_at_end(">a\nACGT\n>empty\n");
    FastxReader reader(empty_at_end);
    FastxRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_THROW(reader.next(record), InputError);

    std::istringstream blank_only(">a\n\n\n");
    FastxReader blank_reader(blank_only);
    EXPECT_THROW(blank_reader.next(record), InputError);

    std::istringstream empty_fastq("@r\n\n+\n\n");
    FastxReader fastq_reader(empty_fastq);
    EXPECT_THROW(fastq_reader.next(record), InputError);
}

TEST(Fastx, FinalRecordWithoutTrailingNewlineRoundTrips)
{
    std::istringstream fasta(">a\nACGT\n>b\nTTGG"); // no final '\n'
    FastxReader fasta_reader(fasta);
    FastxRecord record;
    ASSERT_TRUE(fasta_reader.next(record));
    ASSERT_TRUE(fasta_reader.next(record));
    EXPECT_EQ(record.name, "b");
    EXPECT_EQ(record.seq, "TTGG");
    EXPECT_FALSE(fasta_reader.next(record));

    std::istringstream fastq("@r\nACGT\n+\nIIII"); // no final '\n'
    FastxReader fastq_reader(fastq);
    ASSERT_TRUE(fastq_reader.next(record));
    EXPECT_EQ(record.seq, "ACGT");
    EXPECT_EQ(record.qual, "IIII");
    EXPECT_FALSE(fastq_reader.next(record));

    // CRLF variant of the same: final record ends "\r" with no "\n".
    std::istringstream crlf(">a\r\nACGT\r");
    FastxReader crlf_reader(crlf);
    ASSERT_TRUE(crlf_reader.next(record));
    EXPECT_EQ(record.seq, "ACGT");
    EXPECT_FALSE(crlf_reader.next(record));
}

TEST(Paf, BufferedWriterMatchesFormatPaf)
{
    const Cigar cigar = Cigar::fromString("8=1X4=");
    const PafRecord record =
        makePafRecord("q", 13, '+', "chr9", 500, 42, cigar);

    std::string direct;
    formatPaf(direct, record);

    std::ostringstream buffered;
    {
        PafWriter writer(buffered, 16); // tiny threshold: many flushes
        for (int i = 0; i < 5; ++i)
            writer.write(record);
        EXPECT_EQ(writer.recordsWritten(), 5u);
    } // destructor flushes the tail

    std::string expected;
    for (int i = 0; i < 5; ++i)
        expected += direct;
    EXPECT_EQ(buffered.str(), expected);
}

TEST(Paf, WriterFlushIsObservable)
{
    std::ostringstream out;
    PafWriter writer(out, 1 << 20);
    writer.write(makePafRecord("q", 4, '+', "t", 10, 0,
                               Cigar::fromString("4=")));
    EXPECT_TRUE(out.str().empty()); // still buffered
    writer.flush();
    EXPECT_FALSE(out.str().empty());
}

TEST(Paf, FlushThrowsIoErrorWhenTheStreamFails)
{
    // A stream that rejects every byte (badbit set by a failing
    // streambuf overflow — the in-memory stand-in for ENOSPC).
    class FailingBuf : public std::streambuf
    {
      protected:
        int_type
        overflow(int_type) override
        {
            return traits_type::eof();
        }
    } failing_buf;
    std::ostream out(&failing_buf);

    PafWriter writer(out, 1 << 20);
    writer.write(makePafRecord("q", 4, '+', "t", 10, 0,
                               Cigar::fromString("4=")));
    // The record was accepted (buffered)...
    EXPECT_EQ(writer.recordsWritten(), 1u);
    // ...but flush must surface the loss instead of dropping it.
    EXPECT_THROW(writer.flush(), IoError);
    // The count still reports what the caller handed over, so the
    // error message can say how much output is now suspect.
    EXPECT_EQ(writer.recordsWritten(), 1u);
}

TEST(Paf, DestructorReportsSwallowedStreamFailureOnStderr)
{
    class FailingBuf : public std::streambuf
    {
      protected:
        int_type
        overflow(int_type) override
        {
            return traits_type::eof();
        }
    } failing_buf;
    std::ostream out(&failing_buf);
    testing::internal::CaptureStderr();
    {
        PafWriter writer(out, 1 << 20);
        writer.write(makePafRecord("q", 4, '+', "t", 10, 0,
                                   Cigar::fromString("4=")));
    } // must not terminate: the dtor flush catches the IoError...
    const std::string diagnostic =
        testing::internal::GetCapturedStderr();
    // ...but the loss must not be silent: one warning line naming
    // the failure, so `segram map > out.paf` onto a full disk is
    // diagnosable even from a code path that forgot to flush().
    EXPECT_NE(diagnostic.find("segram: warning: PAF output lost"),
              std::string::npos)
        << "dtor swallowed a flush failure without a diagnostic; "
        << "stderr was: \"" << diagnostic << "\"";
    EXPECT_NE(diagnostic.find("PAF output stream failed"),
              std::string::npos)
        << diagnostic;
}

TEST(Paf, DestructorStaysSilentOnCleanFlush)
{
    std::ostringstream out;
    testing::internal::CaptureStderr();
    {
        PafWriter writer(out, 1 << 20);
        writer.write(makePafRecord("q", 4, '+', "t", 10, 0,
                                   Cigar::fromString("4=")));
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_FALSE(out.str().empty());
}

TEST(Paf, WriteThrowsWhenAThresholdFlushFails)
{
    class FailingBuf : public std::streambuf
    {
      protected:
        int_type
        overflow(int_type) override
        {
            return traits_type::eof();
        }
    } failing_buf;
    std::ostream out(&failing_buf);

    // A threshold several records away: the failure surfaces at the
    // write() that crosses it and flushes into the failing stream —
    // not only at the final explicit flush().
    PafWriter writer(out, 1000);
    const PafRecord record = makePafRecord(
        "q", 4, '+', "t", 10, 0, Cigar::fromString("4="));
    EXPECT_THROW(
        {
            for (int i = 0; i < 100; ++i)
                writer.write(record);
        },
        IoError);
}

TEST(Paf, WritesRecordWithTags)
{
    const Cigar cigar = Cigar::fromString("10=1X5=2D3=1I4=");
    const PafRecord record =
        makePafRecord("read1", 24, '+', "chr1", 1000, 100, cigar);
    EXPECT_EQ(record.queryEnd, cigar.readLength());
    EXPECT_EQ(record.targetEnd, 100 + cigar.refLength());
    EXPECT_EQ(record.matches, 22u);
    std::string line;
    formatPaf(line, record);
    EXPECT_NE(line.find("read1\t24\t0\t24\t+\tchr1\t1000\t100\t"),
              std::string::npos);
    EXPECT_NE(line.find("NM:i:4"), std::string::npos);
    EXPECT_NE(line.find("cg:Z:10=1X5=2D3=1I4="), std::string::npos);
}

TEST(Paf, ParseAcceptsTheNewlineFormatPafEmits)
{
    const Cigar cigar = Cigar::fromString("10=1X5=2D3=1I4=");
    const PafRecord record =
        makePafRecord("read1", 24, '-', "chr1", 1000, 100, cigar);
    std::string line;
    formatPaf(line, record);
    ASSERT_TRUE(line.ends_with('\n'));
    std::string again;
    formatPaf(again, parsePafLine(line));
    EXPECT_EQ(again, line);

    // Only that one '\n' is forgiven: any other line break is named.
    for (const char *junk : {"\n", "\r", "\r\n"}) {
        try {
            parsePafLine(line + junk);
            ADD_FAILURE() << "accepted trailing junk after the newline";
        } catch (const InputError &error) {
            EXPECT_NE(std::string(error.what()).find("stray line break"),
                      std::string::npos)
                << error.what();
        }
    }
    const std::string crlf = line.substr(0, line.size() - 1) + "\r\n";
    EXPECT_THROW(parsePafLine(crlf), InputError);
    // Junk that is not a line break still fails, naming the character.
    const std::string space = line.substr(0, line.size() - 1) + " \n";
    try {
        parsePafLine(space);
        ADD_FAILURE() << "accepted a trailing space after the CIGAR";
    } catch (const InputError &error) {
        EXPECT_NE(std::string(error.what()).find("CIGAR op ' '"),
                  std::string::npos)
            << error.what();
    }
}

class FileRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("segram_io_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const char *name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

TEST_F(FileRoundTrip, Fasta)
{
    const std::vector<FastaRecord> records = {
        {"chr1", "ACGTACGTAC"}, {"chr2", "TTTT"}};
    writeFastaFile(path("x.fa"), records);
    EXPECT_EQ(readFastaFile(path("x.fa")), records);
}

TEST_F(FileRoundTrip, Vcf)
{
    const std::vector<VcfRecord> records = {
        {"chr1", 3, "rs7", "A", "T"}, {"chr1", 8, ".", "ACG", "A"}};
    writeVcfFile(path("x.vcf"), records);
    EXPECT_EQ(readVcfFile(path("x.vcf")), records);
}

TEST_F(FileRoundTrip, Gfa)
{
    GfaDocument doc;
    doc.segments = {{"a", "ACGT"}, {"b", "GG"}};
    doc.links = {{"a", "b"}};
    doc.paths = {{"chr1", {"a", "b"}}};
    writeGfaFile(path("x.gfa"), doc);
    EXPECT_EQ(readGfaFile(path("x.gfa")), doc);
}

TEST_F(FileRoundTrip, IsGfaFileSniffsContent)
{
    GfaDocument doc;
    doc.segments = {{"a", "ACGT"}};
    writeGfaFile(path("x.gfa"), doc);
    EXPECT_TRUE(isGfaFile(path("x.gfa")));
    // A leading comment block must not defeat the sniff, no matter
    // how long (comments and blanks do not consume the scan budget).
    {
        std::ofstream out(path("c.gfa"));
        for (int i = 0; i < 40; ++i)
            out << "# preamble line " << i << "\n\n";
        out << "S\ta\tACGT\n";
    }
    EXPECT_TRUE(isGfaFile(path("c.gfa")));
    // FASTA, FASTQ, VCF and junk are not GFA.
    writeFastaFile(path("x.fa"), {{"chr1", "ACGT"}});
    EXPECT_FALSE(isGfaFile(path("x.fa")));
    writeFastqFile(path("x.fq"), {{"r", "ACGT", "IIII"}});
    EXPECT_FALSE(isGfaFile(path("x.fq")));
    {
        std::ofstream out(path("x.vcf"));
        out << "##fileformat=VCFv4.2\n";
    }
    EXPECT_FALSE(isGfaFile(path("x.vcf")));
    {
        std::ofstream out(path("x.txt"));
        out << "Hello world\n"; // 'H' tag but no tab separator
    }
    EXPECT_FALSE(isGfaFile(path("x.txt")));
    EXPECT_FALSE(isGfaFile(path("absent.gfa")));
}

TEST_F(FileRoundTrip, ReadsFileSniffsFormat)
{
    writeFastaFile(path("r.fa"), {{"a", "ACGT"}});
    writeFastqFile(path("r.fq"), {{"b", "GGTT", "IIII"}});
    const auto from_fasta = readReadsFile(path("r.fa"));
    ASSERT_EQ(from_fasta.size(), 1u);
    EXPECT_EQ(from_fasta[0].seq, "ACGT");
    const auto from_fastq = readReadsFile(path("r.fq"));
    ASSERT_EQ(from_fastq.size(), 1u);
    EXPECT_EQ(from_fastq[0].name, "b");
    EXPECT_EQ(from_fastq[0].seq, "GGTT");
    // Neither format:
    std::ofstream junk(path("r.txt"));
    junk << "hello\n";
    junk.close();
    EXPECT_THROW(readReadsFile(path("r.txt")), InputError);
}

TEST_F(FileRoundTrip, WriteToUnwritablePathThrows)
{
    EXPECT_THROW(writeFastaFile("/nonexistent/dir/x.fa", {}), InputError);
    EXPECT_THROW(writeVcfFile("/nonexistent/dir/x.vcf", {}), InputError);
    EXPECT_THROW(writeGfaFile("/nonexistent/dir/x.gfa", {}), InputError);
}

} // namespace
} // namespace segram::io
