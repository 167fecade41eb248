/**
 * @file
 * The Monte-Carlo half of a workload: cold set-up timing, timed
 * MonteCarloEngine runs with their checks, and the traced per-layer
 * split.
 */

#ifndef PERFBENCH_MC_BENCH_HH
#define PERFBENCH_MC_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

/** Clear every cross-run cache tier, as a fresh process has them:
 *  the compile cache and the process-global decode memo. */
void clearCaches();

struct McTimed
{
    std::vector<double> setupS;    //!< per cold set-up
    std::vector<double> shotsPerS; //!< per timed run
    std::vector<std::uint64_t> failures; //!< per timed run
    decoder::McResult last;        //!< resolved config, counts
    double peakRssMb = 0.0;        //!< this process, after the runs
};

/**
 * The timed engine half, one step at a time so that the caller can
 * interleave it with the serve half over a whole run.
 */
class McTimer
{
  public:
    /** Builds the engine the timed runs use; a cold set-up too. */
    McTimer(const McSpec &spec, std::uint64_t seed);

    /**
     * `spec.setupReps` timed cold set-ups (experiment build, noise/
     * DEM/graph compile, engine construction) that are then dropped,
     * and one timed run of `spec.shots` shots from cleared caches on
     * the timer's engine, at its seed.  Runs reuse one engine: a
     * fresh engine's first run is slower, by an amount that varied
     * widely from run to run on the VM the benchmark was tuned on.
     */
    void step();

    std::size_t runs() const { return t_.shotsPerS.size(); }
    /** The steps' results so far, with this process's peak RSS. */
    const McTimed &result();

  private:
    void coldSetup(std::unique_ptr<codes::Experiment> &exp,
                   std::unique_ptr<decoder::MonteCarloEngine> &engine);

    const McSpec &spec_;
    decoder::McOptions opts_;
    std::unique_ptr<codes::Experiment> exp_;
    std::unique_ptr<decoder::MonteCarloEngine> engine_; // refers to exp_
    McTimed t_;
};

/**
 * Checks: identical failure counts across the runs, failure rate
 * within tolerance of the reference, the resolved decoder and thread
 * count as specified.  Charges the runs' shots to `report`.
 */
void checkMc(const McSpec &spec, const McTimed &t, Report &report);

/** The configuration the engine resolved (decoder, word lanes, CPU
 *  dispatch, threads) and its counts, as one readable line. */
std::string describeRun(const decoder::McResult &r);

/** True when `failures` of `shots` lies within 5 sigma of the spec's
 *  reference rate (the run's binomial sigma plus the reference's). */
bool withinReference(const McSpec &spec, std::uint64_t failures,
                     std::uint64_t shots);

/**
 * The traced split: set-up by layer, then cycles of engine runs at 4
 * and 1 threads from cleared caches and the replay of the same run
 * without and with span recording, for about `budgetS` seconds and
 * at least one cycle.
 * Adds the per-layer metrics to `report` and checks the replay's
 * failure count and counters against the engine's.
 */
void traceMc(const McSpec &spec, std::uint64_t seed, double budgetS,
             SpanRecorder &spans, Report &report);

} // namespace perfbench

#endif // PERFBENCH_MC_BENCH_HH
