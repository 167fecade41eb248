/**
 * @file
 * The serve half of a workload: traq_serve sessions over the
 * workload's seeded stream, their checks against an in-process
 * JobService, and the traced per-layer split of the service path.
 */

#ifndef PERFBENCH_SERVE_BENCH_HH
#define PERFBENCH_SERVE_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "serve_session.hh"
#include "stream.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

struct ServeTimed
{
    std::vector<double> probeSetupS;     //!< probe-only spawns
    std::vector<SessionResult> sessions; //!< probes and full sessions
    std::vector<std::size_t> sample;     //!< indices checked in-process
};

/** Indices whose answers are compared with an in-process
 *  evaluation: seeded, closed-form and MC lines both. */
std::vector<std::size_t> sampleIndices(const Stream &stream,
                                       std::uint64_t seed);

/**
 * The timed serve half, one step at a time so that the caller can
 * interleave it with the engine half over a whole run.
 */
class ServeTimer
{
  public:
    /** `stream` is made from serveStream(); the timer keeps a
     *  reference to it. */
    ServeTimer(const Stream &stream, std::uint64_t seed,
               std::string servePath, int probesPerSession);

    /** `probesPerSession` spawns answering only the set-up probe,
     *  then one full session of the stream. */
    void step();

    std::size_t fullSessions() const { return full_; }
    const ServeTimed &result() const { return t_; }

  private:
    const Stream &stream_;
    Stream probe_;
    std::string servePath_;
    int probesPerSession_;
    std::size_t full_ = 0;
    ServeTimed t_;
};

/**
 * Checks every session (each index answered exactly once, no error
 * answers, clean exit) and that the sampled answers are
 * byte-identical to an in-process JobService evaluation of the same
 * lines.  Charges the sessions' lines to `report`.
 */
void checkServe(const Stream &stream, const ServeTimed &t,
                Report &report);

/**
 * The traced split: the stream's lines through the service layers
 * in-process with a span per call (parse, validate, evaluate, emit),
 * in-process JobService throughput and cache-hit ratio, one session's
 * wall-clock rate, open-loop latency, generator lateness and the share
 * of its CPU time spent outside estimator evaluation, and the 2-worker
 * dispatcher diagnostics.  Adds the per-layer metrics to `report`.
 */
void traceServe(const Stream &stream, const std::string &servePath,
                SpanRecorder &spans, Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVE_BENCH_HH
