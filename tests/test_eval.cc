/**
 * @file
 * Unit tests for the accuracy-evaluation subsystem: truth sidecar
 * round-trip, PAF parsing round-trip, the correctness predicate
 * (threshold and strand semantics), per-profile breakdowns, and the
 * end-to-end simulate -> map -> evaluate loop in-process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/segram.h"
#include "src/eval/accuracy.h"
#include "src/io/paf.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"

namespace
{

using namespace segram;
using eval::AccuracyEvaluator;
using eval::EvalConfig;
using eval::TruthRecord;

class EvalFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("segram_eval_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    path(const char *name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

TruthRecord
makeTruth(const std::string &name, uint64_t start,
          const std::string &profile, char strand = '+',
          uint32_t read_len = 100)
{
    TruthRecord record;
    record.readName = name;
    record.chromosome = "chr1";
    record.donorStart = start;
    record.truthLinearStart = start;
    record.strand = strand;
    record.readLen = read_len;
    record.plantedErrors = 3;
    record.profile = profile;
    return record;
}

io::PafRecord
makeMapping(const std::string &name, uint64_t target_start,
            char strand = '+')
{
    io::PafRecord record;
    record.queryName = name;
    record.queryLen = 100;
    record.strand = strand;
    record.targetName = "chr1";
    record.targetLen = 100'000;
    record.targetStart = target_start;
    record.targetEnd = target_start + 100;
    return record;
}

TEST_F(EvalFileTest, TruthFileRoundTrips)
{
    std::vector<TruthRecord> truth = {
        makeTruth("read0", 1234, "illumina-1%"),
        makeTruth("read1", 98765, "pacbio-5%", '-', 10'000),
    };
    truth[1].plantedErrors = 512;
    eval::writeTruthFile(path("t.truth.tsv"), truth);
    const auto loaded = eval::readTruthFile(path("t.truth.tsv"));
    ASSERT_EQ(loaded.size(), truth.size());
    EXPECT_EQ(loaded[0], truth[0]);
    EXPECT_EQ(loaded[1], truth[1]);
}

TEST_F(EvalFileTest, TruthFileRejectsMalformedRows)
{
    {
        std::ofstream out(path("bad.tsv"));
        out << "# header\nname\tchr1\t1\t2\t+\t100\n"; // 6 fields of 8
    }
    EXPECT_THROW(eval::readTruthFile(path("bad.tsv")), InputError);
    {
        std::ofstream out(path("bad2.tsv"));
        // non-numeric coordinate
        out << "name\tchr1\t1\tx\t+\t100\t0\tp\n";
    }
    EXPECT_THROW(eval::readTruthFile(path("bad2.tsv")), InputError);
    {
        std::ofstream out(path("bad3.tsv"));
        out << "name\tchr1\t1\t2\t*\t100\t0\tp\n"; // bad strand
    }
    EXPECT_THROW(eval::readTruthFile(path("bad3.tsv")), InputError);
    EXPECT_THROW(eval::readTruthFile(path("absent.tsv")), InputError);
}

TEST_F(EvalFileTest, PafFileRoundTrips)
{
    Cigar cigar = Cigar::fromString("40=1X9=2D50=");
    const auto written = io::makePafRecord("readA", 100, '-', "chr2",
                                           5'000'000, 777, cigar);
    {
        std::ofstream out(path("r.paf"));
        io::PafWriter writer(out);
        writer.write(written);
        writer.write(io::makePafRecord("readB", 80, '+', "chr1", 1'000,
                                       12, Cigar{}));
    }
    const auto records = io::readPafFile(path("r.paf"));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].queryName, "readA");
    EXPECT_EQ(records[0].strand, '-');
    EXPECT_EQ(records[0].targetName, "chr2");
    EXPECT_EQ(records[0].targetStart, 777u);
    EXPECT_EQ(records[0].targetEnd, written.targetEnd);
    EXPECT_EQ(records[0].matches, written.matches);
    EXPECT_EQ(records[0].cigar, cigar);
    EXPECT_EQ(records[1].queryName, "readB");
    EXPECT_TRUE(records[1].cigar.empty());
}

TEST_F(EvalFileTest, PafParserRejectsGarbage)
{
    EXPECT_THROW(io::parsePafLine("only\tthree\tfields"), InputError);
    EXPECT_THROW(
        io::parsePafLine("q\tx\t0\t5\t+\tt\t10\t0\t5\t5\t5\t60"),
        InputError); // non-numeric query length
    EXPECT_THROW(
        io::parsePafLine("q\t5\t0\t5\t?\tt\t10\t0\t5\t5\t5\t60"),
        InputError); // bad strand
    EXPECT_THROW(io::readPafFile(path("absent.paf")), InputError);
}

TEST(PafParser, RejectsInternallyInconsistentRecords)
{
    // The anchor: this exact record is consistent and parses.
    EXPECT_NO_THROW(
        io::parsePafLine("q\t10\t0\t10\t+\tt\t50\t5\t15\t8\t10\t60"));
    // queryStart > queryEnd — a swapped pair could still land inside
    // the eval correctness window and silently skew the report.
    EXPECT_THROW(
        io::parsePafLine("q\t10\t10\t0\t+\tt\t50\t5\t15\t8\t10\t60"),
        InputError);
    // queryEnd > queryLen.
    EXPECT_THROW(
        io::parsePafLine("q\t10\t0\t11\t+\tt\t50\t5\t15\t8\t10\t60"),
        InputError);
    // targetStart > targetEnd.
    EXPECT_THROW(
        io::parsePafLine("q\t10\t0\t10\t+\tt\t50\t15\t5\t8\t10\t60"),
        InputError);
    // targetEnd > targetLen.
    EXPECT_THROW(
        io::parsePafLine("q\t10\t0\t10\t+\tt\t50\t5\t51\t8\t10\t60"),
        InputError);
    // matches > alignmentLen.
    EXPECT_THROW(
        io::parsePafLine("q\t10\t0\t10\t+\tt\t50\t5\t15\t11\t10\t60"),
        InputError);
}

TEST(AccuracyEvaluator, ThresholdBoundsTheCorrectnessWindow)
{
    EvalConfig config;
    config.distanceThreshold = 10;
    const AccuracyEvaluator evaluator({makeTruth("r", 1000, "p")},
                                      config);
    const auto &truth = makeTruth("r", 1000, "p");
    EXPECT_TRUE(evaluator.isCorrect(truth, makeMapping("r", 1000)));
    EXPECT_TRUE(evaluator.isCorrect(truth, makeMapping("r", 990)));
    EXPECT_TRUE(evaluator.isCorrect(truth, makeMapping("r", 1010)));
    EXPECT_FALSE(evaluator.isCorrect(truth, makeMapping("r", 989)));
    EXPECT_FALSE(evaluator.isCorrect(truth, makeMapping("r", 1011)));
}

TEST(AccuracyEvaluator, WrongChromosomeIsWrongEvenAtTheRightOffset)
{
    const auto truth = makeTruth("r", 1000, "p"); // planted on chr1
    const AccuracyEvaluator evaluator({truth});
    io::PafRecord wrong_chromosome = makeMapping("r", 1000);
    wrong_chromosome.targetName = "chr2";
    EXPECT_FALSE(evaluator.isCorrect(truth, wrong_chromosome));
    EXPECT_TRUE(evaluator.isCorrect(truth, makeMapping("r", 1000)));

    // An empty truth chromosome (single anonymous reference) skips
    // the check.
    auto anonymous = truth;
    anonymous.chromosome.clear();
    const AccuracyEvaluator lax({anonymous});
    EXPECT_TRUE(lax.isCorrect(anonymous, wrong_chromosome));
}

TEST(AccuracyEvaluator, StrandMismatchIsWrongUnlessDisabled)
{
    const auto truth_minus = makeTruth("r", 500, "p", '-');
    EvalConfig strict;
    const AccuracyEvaluator evaluator({truth_minus}, strict);
    EXPECT_TRUE(
        evaluator.isCorrect(truth_minus, makeMapping("r", 500, '-')));
    EXPECT_FALSE(
        evaluator.isCorrect(truth_minus, makeMapping("r", 500, '+')));

    EvalConfig lax;
    lax.requireStrandMatch = false;
    const AccuracyEvaluator lax_evaluator({truth_minus}, lax);
    EXPECT_TRUE(
        lax_evaluator.isCorrect(truth_minus, makeMapping("r", 500, '+')));
}

TEST(AccuracyEvaluator, PerProfileBreakdownAndUnknownReads)
{
    std::vector<TruthRecord> truth = {
        makeTruth("i0", 100, "illumina-1%"),
        makeTruth("i1", 200, "illumina-1%"),
        makeTruth("p0", 300, "pacbio-5%"),
    };
    const AccuracyEvaluator evaluator(std::move(truth));
    const std::vector<io::PafRecord> mapped = {
        makeMapping("i0", 100),    // correct
        makeMapping("i1", 90'000), // mapped but wrong locus
        makeMapping("ghost", 1),   // not in the truth set
    };
    const auto report = evaluator.evaluate("test", mapped);
    EXPECT_EQ(report.overall.truthReads, 3u);
    EXPECT_EQ(report.overall.mappedReads, 2u);
    EXPECT_EQ(report.overall.correctReads, 1u);
    EXPECT_EQ(report.overall.recordsTotal, 3u);
    EXPECT_EQ(report.overall.recordsCorrect, 1u);
    EXPECT_EQ(report.unknownRecords, 1u);
    EXPECT_DOUBLE_EQ(report.overall.sensitivity(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(report.overall.precision(), 1.0 / 3.0);

    ASSERT_EQ(report.perProfile.size(), 2u);
    const auto &illumina = report.perProfile.at("illumina-1%");
    EXPECT_EQ(illumina.truthReads, 2u);
    EXPECT_EQ(illumina.mappedReads, 2u);
    EXPECT_EQ(illumina.correctReads, 1u);
    const auto &pacbio = report.perProfile.at("pacbio-5%");
    EXPECT_EQ(pacbio.truthReads, 1u);
    EXPECT_EQ(pacbio.mappedReads, 0u);
    EXPECT_EQ(pacbio.correctReads, 0u);
    EXPECT_DOUBLE_EQ(pacbio.sensitivity(), 0.0);
}

TEST(AccuracyEvaluator, DuplicateSecondaryHitsDoNotInflateSensitivity)
{
    const AccuracyEvaluator evaluator({makeTruth("r", 1000, "p")});
    const std::vector<io::PafRecord> mapped = {
        makeMapping("r", 50'000), // wrong secondary
        makeMapping("r", 1000),   // correct primary
    };
    const auto report = evaluator.evaluate("test", mapped);
    EXPECT_EQ(report.overall.correctReads, 1u);
    EXPECT_EQ(report.overall.mappedReads, 1u);
    EXPECT_EQ(report.overall.recordsTotal, 2u);
    EXPECT_EQ(report.overall.recordsCorrect, 1u);
    EXPECT_DOUBLE_EQ(report.overall.sensitivity(), 1.0);
    EXPECT_DOUBLE_EQ(report.overall.precision(), 0.5);
}

TEST(AccuracyEvaluator, RejectsDuplicateTruthNames)
{
    EXPECT_THROW(AccuracyEvaluator({makeTruth("dup", 1, "p"),
                                    makeTruth("dup", 2, "p")}),
                 InputError);
}

TEST(AccuracyEvaluator, ReportFormattersCoverEveryProfile)
{
    const AccuracyEvaluator evaluator({makeTruth("a", 10, "px"),
                                       makeTruth("b", 20, "py")});
    const auto report = evaluator.evaluate(
        "mapperX", std::vector<io::PafRecord>{makeMapping("a", 10)});
    const std::string text = eval::formatReport(report);
    EXPECT_NE(text.find("mapperX"), std::string::npos);
    EXPECT_NE(text.find("px"), std::string::npos);
    EXPECT_NE(text.find("py"), std::string::npos);
    std::string tsv;
    eval::appendReportTsv(tsv, report);
    EXPECT_NE(tsv.find("mapperX\tall\t2\t1\t1\t0.5000\t1.0000"),
              std::string::npos);
}

TEST(AccuracyEvaluator, EndToEndSimulateMapEvaluate)
{
    // The whole loop in-process: plant reads (forward and reverse
    // strand), map them with the real pipeline, and check the
    // evaluator confirms near-perfect placement at 1% error.
    sim::DatasetConfig dataset_config;
    dataset_config.genome.length = 40'000;
    dataset_config.index.bucketBits = 12;
    dataset_config.seed = 77;
    const auto dataset = sim::makeDataset(dataset_config);

    Rng rng(78);
    sim::ReadSimConfig read_config{150, 50,
                                   sim::ErrorProfile::illumina(0.01)};
    read_config.revCompProbability = 0.4;
    const auto reads = sim::simulateReads(dataset.donor, read_config, rng);

    core::SegramConfig config;
    config.minseed.errorRate = 0.05;
    config.tryReverseComplement = true;
    const core::SegramMapper mapper(dataset.graph, dataset.index, config);

    std::vector<TruthRecord> truth;
    std::vector<io::PafRecord> mapped;
    const std::string profile = sim::profileLabel(read_config.errors);
    EXPECT_EQ(profile, "illumina-1%");
    int planted_reverse = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        const std::string name = "read" + std::to_string(i);
        truth.push_back({name, "chr1", reads[i].donorStart,
                         reads[i].truthLinearStart,
                         reads[i].reverseComplemented ? '-' : '+',
                         static_cast<uint32_t>(reads[i].seq.size()),
                         reads[i].plantedErrors, profile});
        planted_reverse += reads[i].reverseComplemented;
        const auto result = mapper.mapRead(reads[i].seq);
        if (!result.mapped)
            continue;
        mapped.push_back(io::makePafRecord(
            name, reads[i].seq.size(),
            result.reverseComplemented ? '-' : '+', "chr1",
            dataset.graph.totalSeqLen(), result.linearStart,
            result.cigar));
    }
    EXPECT_GT(planted_reverse, 5); // both strands actually exercised

    const AccuracyEvaluator evaluator(std::move(truth));
    const auto report = evaluator.evaluate("segram", mapped);
    EXPECT_EQ(report.overall.truthReads, 50u);
    EXPECT_GE(report.overall.sensitivity(), 0.95);
    EXPECT_GE(report.overall.precision(), 0.95);
}

} // namespace
