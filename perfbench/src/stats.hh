/**
 * @file
 * Sample statistics the benchmark reports: medians, nearest-rank
 * percentiles, and the highest percentile a sample resolves.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Median of a sample (mean of the middle pair for even sizes);
 *  0 for an empty sample. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile q (0 < q <= 100) of an ascending sample:
 * the smallest value with at least q% of the sample at or below it.
 * 0 for an empty sample.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/** Samples strictly beyond the nearest-rank q-th percentile of n. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * Highest of the percentiles 50, 90, 99, 99.9, 99.99 that has at
 * least `minBeyond` samples beyond it in a sample of n, or 0 when
 * not even the median does.
 */
double highestResolvedPercentile(std::size_t n,
                                 std::size_t minBeyond = 10);

/** splitmix64 step: the benchmark's own seed mixer, independent of
 *  the library's RNG so a library change cannot move the inputs. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Independent 64-bit seed for `purpose` derived from `seed`. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t purpose);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
