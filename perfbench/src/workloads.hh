/**
 * @file
 * The benchmark's workloads: one Monte-Carlo experiment each, and
 * the request stream all of them serve.  Why each exists is recorded
 * beside it in workloads.cc and in README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/decoder/monte_carlo.hh"

namespace perfbench {

namespace codes = traq::codes;
namespace decoder = traq::decoder;

/** Engine threads for every Monte-Carlo run (the box has 4 cores). */
inline constexpr unsigned kMcThreads = 4;
/** traq_serve worker threads: one core stays with the generator. */
inline constexpr unsigned kServeThreads = 3;

/** A Monte-Carlo experiment run through MonteCarloEngine. */
struct McSpec
{
    int distance = 3;
    int rounds = 3;         //!< memory SE rounds (memory only)
    int cnotLayers = 0;     //!< > 0: transversal-CNOT experiment
    double p = 1e-3;        //!< uniform circuit noise rate
    double atomLoss = 0.0;  //!< noise.atom-loss.p; 0 = no noise stack
    decoder::DecoderKind decoder = decoder::DecoderKind::Fallback;
    std::uint64_t shots = 0; //!< per engine run, timed or traced
    int setupReps = 1;       //!< cold set-ups before each timed run
    /**
     * Reference any-observable failure rate, measured with
     * `refShots` shots over independent seeds.  A run passes when its
     * failure count is within 5 sigma of it (binomial sigma of the
     * run plus the reference's own), so a change of sampler backend
     * passes and a decoder regression fails.
     */
    double refRate = 0.0;
    double refShots = 0.0;
};

/** How a request stream is generated (stream.hh). */
struct StreamSpec
{
    /** Lines of the closed phase, the first being the set-up probe. */
    std::size_t closedLines = 0;
    /** In-flight window of the closed phase (saturating clients). */
    std::size_t window = 0;
    /** Lines and fixed send rate (lines/s) of the open-loop phase. */
    std::size_t openLines = 0;
    double openRate = 0.0;
    /** Share of lines that are mc-logical-error requests. */
    double mcShare = 0.0;
    /** Share of lines repeating an earlier closed-form line. */
    double repeatShare = 0.0;
    /** JSON params of the MC lines, without shots and seed. */
    std::string mcParams;
    std::uint64_t mcLineShots = 0;
};

/**
 * The traffic every workload's serve half pipes into traq_serve: the
 * serve-mixed mix of unique closed-form requests, repeats that hit
 * the result cache, and rare Monte-Carlo lines.
 */
const StreamSpec &serveStream();

struct Workload
{
    std::string name;
    McSpec mc;
    /**
     * > 0: the service is the primary half.  This many set-up probes
     * (spawn to first answer) run before each full serve session, and
     * the end-to-end setup_s and peak_rss_mb are the traq_serve
     * child's.  0: they are the engine's set-up and this process's.
     */
    int probesPerSession = 0;
    /** Share of --seconds spent on the engine half (set-ups and timed
     *  runs); the rest goes to the serve half. */
    double mcTimeShare = 0.5;
};

const std::vector<Workload> &workloads();
/** nullptr for an unknown name. */
const Workload *findWorkload(std::string_view name);

codes::Experiment buildExperiment(const McSpec &spec);
decoder::McOptions mcOptions(const McSpec &spec, std::uint64_t shots,
                             std::uint64_t seed, unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
