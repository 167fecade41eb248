/**
 * @file
 * Seeded request-stream generator for the serve half of a workload.
 *
 * The same (spec, seed) always yields byte-identical lines.  Closed-
 * form lines draw their parameters from the seed and are unique
 * unless they deliberately repeat an earlier line (a cache hit in
 * traq_serve); mc-logical-error lines carry a unique seed each.
 * Line 0, the set-up probe, is always closed-form.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

struct Stream
{
    /** Request lines without newline; [0, closed) is the closed
     *  phase, line 0 the set-up probe, the rest the open loop. */
    std::vector<std::string> lines;
    std::size_t closed = 0;
    std::vector<bool> isMc;     //!< per line: mc-logical-error
    std::size_t mcLines = 0;
    std::size_t repeatLines = 0;
    std::size_t uniqueLines = 0; //!< distinct line texts

    std::size_t size() const { return lines.size(); }
    double uniqueRatio() const;
    double mcShare() const;
};

Stream makeStream(const StreamSpec &spec, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
