#include "workloads.hh"

#include "src/codes/surface_code.hh"

namespace perfbench {

namespace {

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> w;

    // About 99% of shots replay a memoized correction, so the
    // sampler and syndrome extraction do most of the work: a sampler
    // change shows here, a matcher change must not.
    Workload d3;
    d3.name = "mc-memory-d3";
    d3.mc.distance = 3;
    d3.mc.rounds = 3;
    d3.mc.p = 1e-3;
    d3.mc.shots = 10'000'000;
    d3.mc.setupReps = 2;
    d3.mc.refRate = 7.6386e-4;
    d3.mc.refShots = 2e8;
    d3.mcTimeShare = 0.6;
    w.push_back(d3);

    // ~5 defects per shot and only ~37% memo replays: the matcher,
    // the memo tiers and the decode entry point take nearly all of
    // the replay time; sampling is a few percent.
    Workload d5;
    d5.name = "mc-memory-d5";
    d5.mc.distance = 5;
    d5.mc.rounds = 5;
    d5.mc.p = 3e-3;
    d5.mc.shots = 150'000;
    d5.mc.setupReps = 2;
    d5.mc.refRate = 3.27467e-3;
    d5.mc.refShots = 6e6;
    d5.mcTimeShare = 0.6;
    w.push_back(d5);

    // The paper's headline operation with heralded atom loss: nearly
    // every shot fires a herald, so decoding runs per shot through
    // decodeWithContext with ~no memo hits, and set-up compiles the
    // noise stack.  The only workload that exercises src/noise.
    Workload cnot;
    cnot.name = "mc-cnot-d5-loss";
    cnot.mc.distance = 5;
    cnot.mc.cnotLayers = 4;
    cnot.mc.p = 1e-3;
    cnot.mc.atomLoss = 0.005;
    cnot.mc.decoder = decoder::DecoderKind::Correlated;
    cnot.mc.shots = 16'384; // four shards: every engine thread works
    cnot.mc.setupReps = 3;
    cnot.mc.refRate = 0.0405273;
    cnot.mc.refShots = 327680;
    cnot.mcTimeShare = 0.65;
    w.push_back(cnot);

    // The service is the primary half: set-up is spawn to first
    // answer and memory is the child's.  Its engine half runs the
    // stream's MC lines' experiment (mc-logical-error defaults at
    // distance 3).
    Workload serve;
    serve.name = "serve-mixed";
    serve.probesPerSession = 12;
    serve.mc.distance = 3;
    serve.mc.rounds = 3;
    serve.mc.p = 3e-3;
    serve.mc.shots = 2'457'600;
    serve.mc.refRate = 6.45992e-3;
    serve.mc.refShots = 24576000;
    serve.mcTimeShare = 0.35;
    w.push_back(serve);
    return w;
}

} // namespace

const StreamSpec &
serveStream()
{
    // Closed-form estimator traffic that bypasses the Monte-Carlo hot
    // path: unique requests are evaluated, repeats hit the result
    // cache, and the rare MC lines are the scheduler's head-of-line
    // case.  Sessions are short so that a run holds several.
    static const StreamSpec spec = [] {
        StreamSpec s;
        s.closedLines = 20'000;
        s.window = 256;
        s.openLines = 2'000;
        s.openRate = 4'000;
        s.mcShare = 0.005;
        s.repeatShare = 0.2;
        s.mcParams = "\"distance\":3";
        s.mcLineShots = 4096;
        return s;
    }();
    return spec;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

codes::Experiment
buildExperiment(const McSpec &spec)
{
    const auto noise = codes::NoiseParams::uniform(spec.p);
    if (spec.cnotLayers > 0) {
        codes::TransversalCnotSpec cnot;
        cnot.distance = spec.distance;
        cnot.cnotLayers = spec.cnotLayers;
        cnot.noise = noise;
        return codes::buildTransversalCnot(cnot);
    }
    const codes::SurfaceCode code(spec.distance);
    return codes::buildMemory(code, 'Z', spec.rounds, noise);
}

decoder::McOptions
mcOptions(const McSpec &spec, std::uint64_t shots, std::uint64_t seed,
          unsigned threads)
{
    decoder::McOptions o;
    o.shots = shots;
    o.seed = seed;
    o.threads = threads;
    o.decoder = spec.decoder;
    if (spec.atomLoss > 0.0)
        o.noiseSpec.setFlat("noise.atom-loss.p", spec.atomLoss);
    return o;
}

} // namespace perfbench
