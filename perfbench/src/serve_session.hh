/**
 * @file
 * One traq_serve session: spawn the child, pipe a stream through it,
 * read its tagged answers, reap it.
 *
 * Phases, on one connection:
 *  1. set-up probe — line 0 is sent right after the spawn; set-up
 *     time runs from the spawn until its answer;
 *  2. closed phase — lines [1, closed) with at most `window` lines
 *     unanswered (saturating clients), timed as answered lines/s;
 *  3. open loop — the remaining lines, each due at a fixed rate
 *     regardless of answers.  Latency runs from the line's due time
 *     to its answer, so a stall is charged to every line it delays,
 *     and the generator's own lateness is reported beside it.
 */

#ifndef PERFBENCH_SERVE_SESSION_HH
#define PERFBENCH_SERVE_SESSION_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream.hh"

namespace perfbench {

struct SessionResult
{
    double setupS = 0.0;
    double closedRps = 0.0;
    std::vector<double> latencyMs; //!< per open-loop line
    double generatorLateMaxMs = 0.0;
    double childPeakRssMb = 0.0;
    double childCpuS = 0.0; //!< user + system CPU of the child
    std::size_t sent = 0;
    /** Payloads of the requested sample indices, as answered. */
    std::map<std::size_t, std::string> sampled;
    /** Empty when every line was answered exactly once, no answer was
     *  an error and the child exited cleanly; else what went wrong. */
    std::string problem;
};

/**
 * Run `stream` through a fresh `servePath --threads <threads>`
 * child.  The child is always reaped before this returns.
 */
SessionResult runSession(const std::string &servePath,
                         unsigned threads, const Stream &stream,
                         std::size_t window, double openRate,
                         const std::vector<std::size_t> &sample);

} // namespace perfbench

#endif // PERFBENCH_SERVE_SESSION_HH
