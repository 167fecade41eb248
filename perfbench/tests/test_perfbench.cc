/**
 * @file
 * The benchmark's own tests: the statistics it reports, the seeded
 * request streams, and the traced replay's agreement with
 * MonteCarloEngine.  Run with `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string_view>

#include "mc_bench.hh"
#include "replay.hh"
#include "serve_bench.hh"
#include "src/service/validation.hh"
#include "stats.hh"
#include "stream.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, NearestRankPercentiles)
{
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i)
        v.push_back(i);
    EXPECT_EQ(percentileSorted(v, 50), 5.0);
    EXPECT_EQ(percentileSorted(v, 90), 9.0);
    EXPECT_EQ(percentileSorted(v, 91), 10.0);
    EXPECT_EQ(percentileSorted(v, 100), 10.0);
    EXPECT_EQ(percentileSorted({}, 50), 0.0);
}

TEST(Stats, SamplesBeyondAndResolvedPercentile)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(1000, 99.9), 1u);
    EXPECT_EQ(samplesBeyond(20, 50), 10u);
    EXPECT_EQ(samplesBeyond(0, 50), 0u);
    EXPECT_EQ(highestResolvedPercentile(19), 0.0);
    EXPECT_EQ(highestResolvedPercentile(20), 50.0);
    EXPECT_EQ(highestResolvedPercentile(100), 90.0);
    EXPECT_EQ(highestResolvedPercentile(999), 90.0);
    EXPECT_EQ(highestResolvedPercentile(1000), 99.0);
    EXPECT_EQ(highestResolvedPercentile(10000), 99.9);
    EXPECT_EQ(highestResolvedPercentile(100000), 99.99);
}

TEST(Stats, DerivedSeedsAreDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed = 0; seed < 50; ++seed)
        for (std::uint64_t purpose = 1; purpose <= 3; ++purpose)
            seen.insert(deriveSeed(seed, purpose));
    EXPECT_EQ(seen.size(), 150u);
}

TEST(Stream, SameSeedSameBytes)
{
    const StreamSpec &spec = serveStream();
    const Stream a = makeStream(spec, 7);
    const Stream b = makeStream(spec, 7);
    const Stream c = makeStream(spec, 8);
    EXPECT_EQ(a.lines, b.lines);
    EXPECT_NE(a.lines, c.lines);
    EXPECT_EQ(a.size(), spec.closedLines + spec.openLines);
}

TEST(Stream, MixedStreamHasTheStatedShares)
{
    const Stream s = makeStream(serveStream(), 3);
    EXPECT_NEAR(s.mcShare(), 0.005, 0.002);
    EXPECT_NEAR(static_cast<double>(s.repeatLines) / s.size(), 0.2,
                0.01);
    // Everything that is not a repeat is a distinct request.
    EXPECT_EQ(s.uniqueLines + s.repeatLines, s.size());
}

TEST(Stream, SetUpProbeIsClosedForm)
{
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        StreamSpec spec = serveStream();
        spec.closedLines = 1;
        spec.openLines = 0;
        ASSERT_FALSE(makeStream(spec, seed).isMc[0]) << seed;
    }
}

TEST(Stream, EveryLineValidates)
{
    auto pool = std::make_shared<traq::service::EstimatorPool>();
    const traq::service::Validator validator(pool, true);
    const Stream s = makeStream(serveStream(), 11);
    for (std::size_t i = 0; i < s.size(); ++i) {
        auto parsed = traq::service::parseRequestLine(s.lines[i]);
        ASSERT_TRUE(parsed.error.empty()) << s.lines[i];
        ASSERT_EQ(parsed.requests.size(), 1u);
        EXPECT_EQ(parsed.requests[0].kind == "mc-logical-error",
                  s.isMc[i]);
        EXPECT_TRUE(validator.validate(parsed.requests[0]).ok())
            << s.lines[i];
    }
}

TEST(Stream, SampleCoversBothKinds)
{
    const Stream s = makeStream(serveStream(), 5);
    const std::vector<std::size_t> idx = sampleIndices(s, 9);
    std::size_t mc = 0;
    for (std::size_t i : idx)
        mc += s.isMc[i];
    EXPECT_EQ(mc, 4u);
    EXPECT_EQ(idx.size(), 36u);
    EXPECT_EQ(idx, sampleIndices(s, 9));
}

TEST(McBench, ReferenceTolerance)
{
    McSpec spec;
    spec.refRate = 0.01;
    spec.refShots = 1e6;
    EXPECT_TRUE(withinReference(spec, 1000, 100000));
    EXPECT_TRUE(withinReference(spec, 1100, 100000));
    EXPECT_FALSE(withinReference(spec, 1300, 100000));
    EXPECT_FALSE(withinReference(spec, 700, 100000));
}

TEST(McBench, ReferenceCheckPassesBackendSwitchFailsDecoderRegression)
{
    // Another sampler backend draws another stream at the same rate.
    const McSpec &d5 = findWorkload("mc-memory-d5")->mc;
    const codes::Experiment exp5 = buildExperiment(d5);
    auto opts = mcOptions(d5, d5.shots, 99, kMcThreads);
    opts.wordBackend = traq::WordBackend::Scalar64;
    clearCaches();
    decoder::McResult res = decoder::runMonteCarlo(exp5, opts);
    EXPECT_TRUE(withinReference(d5, res.anyObservable.hits, res.shots));

    // Erasure-blind decoding of the loss workload is a regression.
    const McSpec &cnot = findWorkload("mc-cnot-d5-loss")->mc;
    const codes::Experiment expCnot = buildExperiment(cnot);
    opts = mcOptions(cnot, 4096, 99, kMcThreads);
    opts.erasureAware = false;
    clearCaches();
    res = decoder::runMonteCarlo(expCnot, opts);
    EXPECT_FALSE(
        withinReference(cnot, res.anyObservable.hits, res.shots));
}

/** Replay == engine at small shot counts, every MC workload. */
class ReplayMatchesEngine : public ::testing::TestWithParam<const char *>
{};

TEST_P(ReplayMatchesEngine, FailuresAndCounters)
{
    const McSpec &spec = findWorkload(GetParam())->mc;
    const std::uint64_t shots = spec.cnotLayers > 0 ? 1500 : 9000;
    const codes::Experiment exp = buildExperiment(spec);
    for (unsigned threads : {1u, 4u}) {
        const auto opts = mcOptions(spec, shots, 12345, threads);
        clearCaches();
        const decoder::McResult res = decoder::runMonteCarlo(exp, opts);
        clearCaches();
        SpanRecorder spans;
        const ReplayStats rp = replayEngine(exp, opts, spans);
        EXPECT_EQ(rp.shots, res.shots);
        EXPECT_EQ(rp.failures, res.anyObservable.hits);
        EXPECT_EQ(rp.heraldedShots, res.heraldedShots);
        EXPECT_EQ(rp.batchMemoHits, res.memoHits);
        EXPECT_EQ(rp.fallbacks, res.mwpmFallbacks);
        EXPECT_EQ(rp.predecodedPairs, res.predecodedPairs);
        EXPECT_NEAR(static_cast<double>(rp.defects) / rp.shots,
                    res.avgDefects, 1e-12);
        // Four stage spans under every batch span, in order.
        const std::vector<Span> &all = spans.spans();
        std::size_t batches = 0;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (std::string_view(all[i].name) != "engine.batch")
                continue;
            ++batches;
            ASSERT_LT(i + 4, all.size());
            for (std::size_t k = 1; k <= 4; ++k) {
                EXPECT_EQ(all[i + k].parent, all[i].id);
                EXPECT_LE(all[i + k].endNs, all[i].endNs);
            }
        }
        const std::uint64_t batchShots =
            64ULL * traq::wordBackendLanes(traq::WordBackend::Auto);
        EXPECT_EQ(batches, (rp.shots + batchShots - 1) / batchShots);
        // Untraced, the same replay records nothing and tallies the
        // same.
        clearCaches();
        SpanRecorder off(false);
        EXPECT_EQ(replayEngine(exp, opts, off).failures, rp.failures);
        EXPECT_TRUE(off.spans().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReplayMatchesEngine,
                         ::testing::Values("mc-memory-d3", "mc-memory-d5",
                                           "mc-cnot-d5-loss",
                                           "serve-mixed"));

} // namespace
} // namespace perfbench
