#include "src/core/map_pipeline.h"

#include <chrono>
#include <deque>
#include <exception>
#include <utility>

#include "src/util/check.h"

namespace segram::core
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

MapPipeline::MapPipeline(io::FastxReader &reader,
                         const ShardedBatchMapper &mapper,
                         const PafFormatter &formatter,
                         io::PafWriter &writer, size_t batch_size)
    : reader_(reader), mapper_(mapper), formatter_(formatter),
      writer_(writer), batchSize_(batch_size)
{
    SEGRAM_CHECK(batch_size >= 1, "batch size must be >= 1");
}

bool
MapPipeline::parse(Batch &batch)
{
    while (batch.seqs.size() < batchSize_ && reader_.next(record_)) {
        batch.names.push_back(std::move(record_.name));
        batch.seqs.push_back(std::move(record_.seq));
    }
    batch.views.assign(batch.seqs.begin(), batch.seqs.end());
    return !batch.seqs.empty();
}

void
MapPipeline::write(const Batch &batch,
                   const std::vector<MultiMapResult> &results)
{
    for (size_t i = 0; i < results.size(); ++i) {
        totals_.bases += batch.seqs[i].size();
        if (const auto record = formatter_.record(
                batch.names[i], batch.seqs[i].size(), results[i])) {
            ++totals_.mapped;
            writer_.write(*record);
        }
    }
    totals_.reads += batch.seqs.size();
}

void
MapPipeline::run()
{
    const auto start = Clock::now();
    const double busy_start = mapper_.poolBusySeconds();
    // Submitted, not yet collected batches, oldest first.
    std::deque<Batch> in_flight;
    std::exception_ptr parse_error;
    bool input_done = false;
    try {
        while (true) {
            // Top the window up: the calling thread parses while the
            // pool maps the batches already submitted.
            while (!input_done && in_flight.size() < kInFlight) {
                Batch batch;
                const auto parse_start = Clock::now();
                try {
                    input_done = !parse(batch);
                } catch (...) {
                    // Malformed input: the batches before it are
                    // still written (a parse error is later in input
                    // order than any of them), this one is dropped.
                    parse_error = std::current_exception();
                    input_done = true;
                }
                totals_.parseSec += secondsSince(parse_start);
                if (input_done)
                    break;
                // The views and names live in the batch's heap
                // buffers, which the move into the deque keeps.
                batch.ticket = mapper_.submit(batch.views, &totals_.stats);
                in_flight.push_back(std::move(batch));
            }
            if (in_flight.empty())
                break;

            // Out of the window before collect: a failed collect has
            // consumed its ticket, so the cancel below must skip it.
            const Batch oldest = std::move(in_flight.front());
            in_flight.pop_front();
            const auto wait_start = Clock::now();
            const auto results = mapper_.collect(oldest.ticket);
            totals_.waitSec += secondsSince(wait_start);
            const auto write_start = Clock::now();
            write(oldest, results);
            totals_.writeSec += secondsSince(write_start);
        }
        if (parse_error != nullptr)
            std::rethrow_exception(parse_error);
        const auto flush_start = Clock::now();
        writer_.flush();
        totals_.writeSec += secondsSince(flush_start);
    } catch (...) {
        // Leave no batch mapping: drop the rest of the window. Its
        // errors are later in input order than the one being thrown.
        for (const Batch &batch : in_flight)
            mapper_.cancel(batch.ticket);
        throw;
    }
    totals_.wallSec = secondsSince(start);
    totals_.poolBusySec = mapper_.poolBusySeconds() - busy_start;
}

double
MapPipeline::poolBusyFraction() const
{
    const double capacity =
        static_cast<double>(mapper_.threads()) * totals_.wallSec;
    return capacity > 0.0 ? totals_.poolBusySec / capacity : 0.0;
}

} // namespace segram::core
