#include "mc_bench.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>

#include "replay.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/global_memo.hh"
#include "stats.hh"

namespace perfbench {

using namespace traq;

namespace {

double
selfPeakRssMb()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

void
clearCaches()
{
    decoder::clearCompileCache();
    decoder::GlobalDecodeMemo::instance().clear();
}

McTimer::McTimer(const McSpec &spec, std::uint64_t seed)
    : spec_(spec), opts_(mcOptions(spec, spec.shots, seed, kMcThreads))
{
    coldSetup(exp_, engine_);
}

void
McTimer::coldSetup(std::unique_ptr<codes::Experiment> &exp,
                   std::unique_ptr<decoder::MonteCarloEngine> &engine)
{
    clearCaches();
    const std::int64_t t0 = nowNs();
    exp = std::make_unique<codes::Experiment>(buildExperiment(spec_));
    engine = std::make_unique<decoder::MonteCarloEngine>(*exp, opts_);
    t_.setupS.push_back(seconds(nowNs() - t0));
}

void
McTimer::step()
{
    for (int r = 0; r < spec_.setupReps; ++r) {
        std::unique_ptr<codes::Experiment> exp;
        std::unique_ptr<decoder::MonteCarloEngine> engine;
        coldSetup(exp, engine);
        engine.reset(); // it refers to exp
    }
    clearCaches();
    const std::int64_t t0 = nowNs();
    t_.last = engine_->run(opts_);
    const double dt = seconds(nowNs() - t0);
    t_.shotsPerS.push_back(static_cast<double>(t_.last.shots) / dt);
    t_.failures.push_back(t_.last.anyObservable.hits);
}

const McTimed &
McTimer::result()
{
    t_.peakRssMb = selfPeakRssMb();
    return t_;
}

std::string
describeRun(const decoder::McResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "mc: decoder=%s word_lanes=%u cpu_dispatch=%s "
                  "threads=%u shots=%llu failures=%llu "
                  "defects_per_shot=%.6g heralded_ratio=%.6g",
                  r.decoder, r.wordLanes, r.cpuDispatch, r.threadsUsed,
                  static_cast<unsigned long long>(r.shots),
                  static_cast<unsigned long long>(r.anyObservable.hits),
                  r.avgDefects,
                  static_cast<double>(r.heraldedShots) /
                      static_cast<double>(r.shots));
    return buf;
}

bool
withinReference(const McSpec &spec, std::uint64_t failures,
                std::uint64_t shots)
{
    const double n = static_cast<double>(shots);
    const double p = spec.refRate;
    const double varRun = n * p * (1.0 - p);
    const double varRef = n * n * p * (1.0 - p) / spec.refShots;
    return std::fabs(static_cast<double>(failures) - n * p) <=
           5.0 * std::sqrt(varRun + varRef);
}

namespace {

/** Problems with the engine's resolved configuration, or "". */
std::string
configProblem(const McSpec &spec, const decoder::McResult &res,
              unsigned threads)
{
    const char *expected = decoder::decoderKindName(spec.decoder);
    if (std::strcmp(res.decoder, expected) != 0)
        return std::string("engine ran decoder ") + res.decoder +
               ", expected " + expected;
    const auto expectedThreads = static_cast<unsigned>(
        std::min<std::uint64_t>(threads, res.shards));
    if (res.threadsUsed != expectedThreads)
        return "engine ran " + std::to_string(res.threadsUsed) +
               " threads, expected " + std::to_string(expectedThreads);
    return "";
}

} // namespace

void
checkMc(const McSpec &spec, const McTimed &t, Report &report)
{
    std::string problem = configProblem(spec, t.last, kMcThreads);
    for (std::uint64_t f : t.failures)
        if (problem.empty() && f != t.failures.front())
            problem = "failure counts differ across runs at one seed";
    if (problem.empty() &&
        !withinReference(spec, t.failures.front(), t.last.shots))
        problem = std::to_string(t.failures.front()) + " failures in " +
                  std::to_string(t.last.shots) +
                  " shots is outside 5 sigma of the reference rate";
    report.operations(t.last.shots * t.failures.size(), problem);
}

void
traceMc(const McSpec &spec, std::uint64_t seed, double budgetS,
        SpanRecorder &spans, Report &report)
{
    const decoder::McOptions opts4 =
        mcOptions(spec, spec.shots, seed, kMcThreads);
    const decoder::McOptions opts1 =
        mcOptions(spec, spec.shots, seed, 1);

    // Set-up split by layer, cold.
    constexpr int kSetups = 10;
    std::vector<double> buildS, compileS;
    std::unique_ptr<decoder::MonteCarloEngine> engine;
    std::unique_ptr<codes::Experiment> exp;
    for (int r = 0; r < kSetups; ++r) {
        engine.reset();
        exp.reset();
        clearCaches();
        const std::int64_t t0 = nowNs();
        exp = std::make_unique<codes::Experiment>(buildExperiment(spec));
        const std::int64_t t1 = nowNs();
        decoder::compileDecodeSetup(*exp, opts4.noiseSpec, true);
        const std::int64_t t2 = nowNs();
        engine = std::make_unique<decoder::MonteCarloEngine>(*exp, opts4);
        const std::int64_t t3 = nowNs();
        const std::uint32_t root =
            spans.add("engine.setup", static_cast<std::uint64_t>(r), 0,
                      t0, t3);
        spans.add("codes.build", r, root, t0, t1);
        spans.add("decoder.compile", r, root, t1, t2);
        spans.add("engine.construct", r, root, t2, t3);
        buildS.push_back(seconds(t1 - t0));
        compileS.push_back(seconds(t2 - t1));
    }
    report.add("codes.build_s", median(buildS), "s");
    report.add("decoder.compile_s", median(compileS), "s");

    // Thread scaling and the replay of the 1-thread run, in cycles
    // repeated while the next one is expected to end within budget;
    // every engine run starts from cleared caches.  Times are medians over
    // the cycles, and only the first cycle's spans are kept.
    std::vector<double> wall4, wall1, tracedWall, untracedWall, stages;
    std::vector<double> sampleNs, extractNs, decodeNs, tallyNs;
    ReplayStats rp;
    unsigned threads4 = 0;
    const std::int64_t start = nowNs();
    for (std::size_t c = 0;
         c == 0 || seconds(nowNs() - start) *
                           (1.0 + 1.0 / static_cast<double>(c)) <=
                       budgetS;
         ++c) {
        // 4 threads before and after the 1-thread run, averaged, so
        // a drift in machine speed cancels out of the ratio.
        auto timed = [&](const decoder::McOptions &o, double &wall) {
            clearCaches();
            const std::int64_t t0 = nowNs();
            decoder::McResult r = engine->run(o);
            wall = seconds(nowNs() - t0);
            return r;
        };
        double before = 0.0, after = 0.0, single = 0.0;
        const decoder::McResult res4 = timed(opts4, before);
        const decoder::McResult res1 = timed(opts1, single);
        timed(opts4, after);
        wall4.push_back(0.5 * (before + after));
        wall1.push_back(single);
        // The replay with and without span recording: the
        // difference is the tracing overhead.
        clearCaches();
        SpanRecorder off(false);
        untracedWall.push_back(
            seconds(replayEngine(*exp, opts1, off).wallNs));
        clearCaches();
        SpanRecorder discarded;
        rp = replayEngine(*exp, opts1, c == 0 ? spans : discarded);
        threads4 = res4.threadsUsed;
        if (c == 0)
            std::printf("%s\n", describeRun(res4).c_str());

        std::string problem = configProblem(spec, res1, 1);
        if (problem.empty() &&
            (rp.failures != res1.anyObservable.hits ||
             rp.failures != res4.anyObservable.hits))
            problem = "replay failures " + std::to_string(rp.failures) +
                      " != engine failures " +
                      std::to_string(res1.anyObservable.hits) + " / " +
                      std::to_string(res4.anyObservable.hits);
        if (problem.empty() &&
            (rp.heraldedShots != res1.heraldedShots ||
             rp.batchMemoHits != res1.memoHits ||
             rp.fallbacks != res1.mwpmFallbacks ||
             rp.predecodedPairs != res1.predecodedPairs))
            problem = "replay counters differ from the engine's";
        report.operations(4 * spec.shots, problem);

        const double shots = static_cast<double>(rp.shots);
        tracedWall.push_back(seconds(rp.wallNs));
        stages.push_back(seconds(rp.stagesNs()));
        sampleNs.push_back(rp.sampleNs / shots);
        extractNs.push_back(rp.extractNs / shots);
        decodeNs.push_back(rp.decodeNs / shots);
        tallyNs.push_back(rp.tallyNs / shots);
    }

    const double stageNs = median(sampleNs) + median(extractNs) +
                           median(decodeNs) + median(tallyNs);
    std::printf("replay: shots=%llu cycles=%zu sim_share=%.4f "
                "decode_share=%.4f tally_share=%.4f\n",
                static_cast<unsigned long long>(rp.shots), wall1.size(),
                (median(sampleNs) + median(extractNs)) / stageNs,
                median(decodeNs) / stageNs, median(tallyNs) / stageNs);
    const double shots = static_cast<double>(rp.shots);
    report.add("sim.sample_ns_per_shot", median(sampleNs), "ns");
    report.add("sim.extract_ns_per_shot", median(extractNs), "ns");
    report.add("decoder.decode_ns_per_shot", median(decodeNs), "ns");
    report.add("sim.defects_per_shot", rp.defects / shots, "count");
    report.add("noise.heralded_shot_ratio", rp.heraldedShots / shots,
               "ratio");
    report.add("decoder.batch_memo_hit_ratio", rp.batchMemoHits / shots,
               "ratio");
    report.add("decoder.global_memo_hit_ratio",
               rp.globalMemoHits / shots, "ratio");
    report.add("decoder.fallbacks_per_kshot", rp.fallbacks * 1e3 / shots,
               "count");
    report.add("decoder.predecode_pairs_per_shot",
               rp.predecodedPairs / shots, "count");
    report.add("engine.parallel_efficiency",
               median(wall1) / (median(wall4) * threads4), "ratio");
    report.add("engine.overhead_ratio", median(wall1) / median(stages),
               "ratio");
    report.add("trace.overhead_s",
               median(tracedWall) - median(untracedWall), "s");
}

} // namespace perfbench
