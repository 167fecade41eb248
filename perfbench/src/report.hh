/**
 * @file
 * What one benchmark run reports: named metrics with units, the
 * checks that failed, and the operations attempted and failed.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::string> problems; //!< failed checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record operations; `problem` non-empty marks them failed. */
    void operations(std::uint64_t ops, const std::string &problem)
    {
        attempted += ops;
        if (!problem.empty()) {
            failed += ops;
            problems.push_back(problem);
        }
    }
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
