/**
 * @file
 * Benchmark-owned replay of MonteCarloEngine's shard loop.
 *
 * The engine keeps no clocks, so the traced run splits its time by
 * re-running the same work through the layers' public functions —
 * FrameSimulator::sampleInto (sim), extractSyndromeBlock (sim),
 * decodeBatchSorted or the per-shot erasure-context decode (decoder)
 * — with a span around each call.  Shard i draws from Rng(seed, i)
 * with the engine's shard size, resolved decoder configuration and
 * memo tiers, so its failure tally must equal the engine's exactly;
 * the benchmark checks that.  The replay runs on one thread.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>

#include "src/codes/experiments.hh"
#include "src/decoder/monte_carlo.hh"
#include "trace.hh"

namespace perfbench {

namespace codes = traq::codes;
namespace decoder = traq::decoder;

/** Counts and per-layer time of one replayed run. */
struct ReplayStats
{
    std::uint64_t shots = 0;
    std::uint64_t failures = 0; //!< shots where any observable failed
    std::uint64_t defects = 0;
    std::uint64_t heraldedShots = 0;
    std::uint64_t batchMemoHits = 0;  //!< per-batch memo replays
    std::uint64_t globalMemoHits = 0; //!< process-global memo replays
    std::uint64_t fallbacks = 0;
    std::uint64_t predecodedPairs = 0;
    std::int64_t sampleNs = 0;
    std::int64_t extractNs = 0;
    std::int64_t decodeNs = 0;
    std::int64_t tallyNs = 0;
    std::int64_t wallNs = 0;

    std::int64_t stagesNs() const
    {
        return sampleNs + extractNs + decodeNs + tallyNs;
    }
};

/**
 * Replay `opts.shots` shots of `exp` as MonteCarloEngine::run would,
 * recording shard, batch and stage spans into `spans`.  Uses the
 * compile cache and process-global memo exactly as the engine does;
 * callers clear them first for a cold run.
 */
ReplayStats replayEngine(const codes::Experiment &exp,
                         const decoder::McOptions &opts,
                         SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
