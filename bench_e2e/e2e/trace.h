/**
 * @file
 * In-memory span recorder for the traced pass of the end-to-end bench.
 * Spans are taken around the bench's own calls into each layer (name,
 * start, end, parent span, and a batch or request id shared by the
 * spans of one unit of work); counters are sampled at the same
 * boundaries. Nothing is written until the run ends, when the whole
 * recording becomes one Chrome-trace JSON file that Perfetto
 * (ui.perfetto.dev) or chrome://tracing opens directly.
 */

#ifndef SEGRAM_BENCH_E2E_TRACE_H
#define SEGRAM_BENCH_E2E_TRACE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "e2e/stats.h"

namespace segram::e2e
{

/** Named numeric arguments of a span or counter sample. */
using TraceArgs = std::vector<std::pair<std::string, double>>;

/** Single-threaded recorder; serve client threads hand their request
 *  timestamps back to the owning thread, which records them. */
class TraceRecorder
{
  public:
    TraceRecorder() : origin_(Clock::now()) {}

    /** Opens a span now; returns its id for end() and as a parent. */
    int
    begin(std::string name, std::string layer, int parent = -1,
          int64_t unit = -1, int tid = 0)
    {
        spans_.push_back({std::move(name), std::move(layer), Clock::now(),
                          Clock::now(), parent, unit, tid, {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Closes span @p id now; returns its duration in seconds. */
    double
    end(int id, TraceArgs args = {})
    {
        Span &span = spans_[static_cast<size_t>(id)];
        span.end = Clock::now();
        span.args = std::move(args);
        return secondsBetween(span.start, span.end);
    }

    /** Records a span whose endpoints were measured elsewhere. */
    int
    add(std::string name, std::string layer, Clock::time_point start,
        Clock::time_point end, int parent, int64_t unit, int tid,
        TraceArgs args = {})
    {
        spans_.push_back({std::move(name), std::move(layer), start, end,
                          parent, unit, tid, std::move(args)});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Samples counter track @p name at @p when. */
    void
    counter(std::string name, Clock::time_point when, TraceArgs values)
    {
        counters_.push_back({std::move(name), when, std::move(values)});
    }

    size_t numSpans() const { return spans_.size(); }

    /** Writes the Chrome-trace JSON; false when the file fails. */
    bool
    write(const std::string &path, const std::string &process_name) const
    {
        FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        std::fprintf(out,
                     "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                     "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"args\":{\"name\":\"%s\"}}",
                     process_name.c_str());
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            std::fprintf(out,
                         ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"span\":%zu,\"parent\":%d,"
                         "\"unit\":%lld",
                         span.name.c_str(), span.layer.c_str(), span.tid,
                         micros(span.start),
                         micros(span.end) - micros(span.start), i,
                         span.parent, static_cast<long long>(span.unit));
            writeArgs(out, span.args, true);
            std::fprintf(out, "}}");
        }
        for (const Counter &sample : counters_) {
            std::fprintf(out,
                         ",\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,"
                         "\"ts\":%.3f,\"args\":{",
                         sample.name.c_str(), micros(sample.when));
            writeArgs(out, sample.values, false);
            std::fprintf(out, "}}");
        }
        std::fprintf(out, "\n]}\n");
        return std::fclose(out) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
        int64_t unit; ///< batch or request id; -1 for none
        int tid;
        TraceArgs args;
    };

    struct Counter
    {
        std::string name;
        Clock::time_point when;
        TraceArgs values;
    };

    double
    micros(Clock::time_point when) const
    {
        return secondsBetween(origin_, when) * 1e6;
    }

    static void
    writeArgs(FILE *out, const TraceArgs &args, bool leading_comma)
    {
        for (size_t i = 0; i < args.size(); ++i)
            std::fprintf(out, "%s\"%s\":%.9g",
                         leading_comma || i > 0 ? "," : "",
                         args[i].first.c_str(), args[i].second);
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<Counter> counters_;
};

} // namespace segram::e2e

#endif // SEGRAM_BENCH_E2E_TRACE_H
