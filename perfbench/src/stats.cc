#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** 1-based nearest rank of percentile q in a sample of n. */
std::size_t
nearestRank(std::size_t n, double q)
{
    // The epsilon keeps ranks like 99.9% of 1000 = 999 from rounding
    // up to 1000 through floating-point error in q * n / 100.
    const double exact = q / 100.0 * static_cast<double>(n);
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), q) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

double
highestResolvedPercentile(std::size_t n, std::size_t minBeyond)
{
    double best = 0.0;
    for (double q : {50.0, 90.0, 99.0, 99.9, 99.99})
        if (n > 0 && samplesBeyond(n, q) >= minBeyond)
            best = q;
    return best;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t purpose)
{
    std::uint64_t state = seed ^ (purpose * 0xd1b54a32d192ed03ULL);
    splitmix64(state);
    return splitmix64(state);
}

} // namespace perfbench
