/**
 * @file
 * Small measurement helpers of the end-to-end bench: order statistics
 * over run samples and the FNV-1a digest that fingerprints inputs and
 * outputs for byte-identity comparisons across runs and commits.
 */

#ifndef SEGRAM_BENCH_E2E_STATS_H
#define SEGRAM_BENCH_E2E_STATS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace segram::e2e
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** Nearest-rank percentile (q in [0, 1]) of @p values; 0 when empty. */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/** Median (mean of the middle pair for even counts); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double value : values)
        sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** 64-bit FNV-1a, chainable through @p hash. */
inline uint64_t
fnv64(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Whole file as a string; empty when it cannot be read. */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace segram::e2e

#endif // SEGRAM_BENCH_E2E_STATS_H
