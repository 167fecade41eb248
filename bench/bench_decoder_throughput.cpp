/**
 * @file
 * Decoder throughput/latency bench, supporting the paper's
 * decoding-complexity discussion (Sec. III.4): correlated decoding
 * enlarges the decoding problem, and the real-time budget of Table I
 * allows roughly 500 us of decode per QEC round, so per-round decode
 * latency is the figure of merit — especially for the windowed
 * streaming decoder, whose whole point is bounded per-round work.
 *
 * Every registered DecoderKind is timed on the same pre-sampled
 * syndromes (memory and two-patch transversal-CNOT circuits at
 * p = 1e-3), and each kind gets a machine-readable
 *
 *     decode-latency[<kind>]: <us> us/round <PASS|WARN> (budget 500)
 *
 * line on the hardest fixture (d=5 joint CNOT decoding).
 * Each kind is timed three ways on the same accepted shots: the
 * per-shot decode() loop (MWPM reach cache on, the default), and
 * the engine's batch driver decodeBatchSorted() with memoization
 * off over the packed CSR syndromes, once with the reach cache off
 * (the "no cache" column) and once with the predecode pair-peeler
 * enabled (the "<kind>+batch+predecode" budget lines).
 *
 * One more row times the erasure-aware engine path on the paper's
 * headline operation: d=5 transversal CNOT with heralded atom loss
 * (noise.atom-loss.p = 0.005), decoded by the correlated decoder
 * through decodeBatchSorted() with the fired heralds attached, so
 * every heralded shot decodes with its channels' edges zeroed — the
 * "correlated+herald-context" line.
 * WARN rather than FAIL: CI machine classes vary, and the tripwire
 * for gross regressions is the wall-clock baseline in
 * bench/perf_baseline.txt.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/table.hh"
#include "src/common/word.hh"
#include "src/decoder/decoder.hh"
#include "src/noise/noise.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace {

using namespace traq;

constexpr double kBudgetUsPerRound = 500.0;  // Table I decode slot

struct Fixture
{
    std::string label;
    codes::Experiment exp;
    /** The sampled circuit: exp.circuit plus any compiled noise. */
    sim::Circuit circuit;
    decoder::DecodeGraph graph;
    int rounds = 1;
    std::vector<std::vector<std::uint32_t>> syndromes;
    /** Fired herald channels per shot (all empty without loss). */
    std::vector<std::vector<std::uint32_t>> heralds;

    Fixture(std::string name, codes::Experiment e,
            std::size_t shots, double atomLoss = 0.0)
        : label(std::move(name)), exp(std::move(e)),
          circuit(withAtomLoss(exp.circuit, atomLoss)),
          graph(decoder::DecodeGraph::fromDem(sim::buildDem(circuit),
                                              exp.meta))
    {
        rounds = graph.numRounds();
        sim::FrameSimulator fs(7);
        sim::FrameBatch batch;
        sim::SyndromeBlock block;
        const std::uint64_t live = ~0ULL;
        while (syndromes.size() < shots) {
            fs.sampleInto(circuit, batch);
            sim::extractSyndromeBlock(batch, {&live, 1}, block);
            for (std::uint64_t s = 0;
                 s < block.shots() && syndromes.size() < shots; ++s) {
                const auto syn = block.syndrome(s);
                syndromes.emplace_back(syn.begin(), syn.end());
                const auto her = block.heralds(s);
                heralds.emplace_back(her.begin(), her.end());
            }
        }
    }

    static sim::Circuit
    withAtomLoss(const sim::Circuit &c, double p)
    {
        if (p <= 0.0)
            return c;
        noise::NoiseSpec spec;
        spec.setFlat("noise.atom-loss.p", p);
        return noise::NoiseModel::fromSpec(spec).compile(c);
    }

    static codes::Experiment
    makeMemory(int d)
    {
        codes::SurfaceCode sc(d);
        return codes::buildMemory(
            sc, 'Z', d, codes::NoiseParams::uniform(1e-3));
    }

    static codes::Experiment
    makeCnot(int d)
    {
        codes::TransversalCnotSpec spec;
        spec.distance = d;
        spec.cnotLayers = 4;
        spec.noise = codes::NoiseParams::uniform(1e-3);
        return codes::buildTransversalCnot(spec);
    }
};

/** CSR view over a subset of a fixture's pre-sampled shots. */
struct BatchStorage
{
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> defects;
    std::vector<std::uint32_t> heraldOffsets{0};
    std::vector<std::uint32_t> heraldIds;
    std::size_t shots = 0;

    void
    add(const std::vector<std::uint32_t> &syn,
        const std::vector<std::uint32_t> &heralds = {})
    {
        defects.insert(defects.end(), syn.begin(), syn.end());
        offsets.push_back(
            static_cast<std::uint32_t>(defects.size()));
        heraldIds.insert(heraldIds.end(), heralds.begin(),
                         heralds.end());
        heraldOffsets.push_back(
            static_cast<std::uint32_t>(heraldIds.size()));
        ++shots;
    }

    decoder::SyndromeBatch
    view() const
    {
        decoder::SyndromeBatch b;
        b.offsets = offsets;
        b.defects = defects;
        b.heraldOffsets = heraldOffsets;
        b.heraldIds = heraldIds;
        return b;
    }
};

/**
 * Mean decode time per shot, in microseconds.  Kinds that refuse a
 * syndrome (bare MWPM above its defect cap) have it skipped and
 * counted; the mean is over decoded shots.  When `batch` is given,
 * the accepted shots are also packed into it so the batch timing
 * below decodes exactly the same work.
 */
double
usPerShot(decoder::Decoder &dec, const Fixture &f,
          std::size_t *skipped, BatchStorage *batch = nullptr)
{
    // One warmup pass so lazily-sized scratch does not bill the
    // timed pass (and so refusals are discovered outside it).
    std::vector<const std::vector<std::uint32_t> *> accepted;
    for (const auto &syn : f.syndromes) {
        try {
            dec.decode(syn);
            accepted.push_back(&syn);
            if (batch)
                batch->add(syn);
        } catch (const FatalError &) {
        }
    }
    *skipped = f.syndromes.size() - accepted.size();
    if (accepted.empty())
        return 0.0;
    // Warmup decodes would otherwise double the fallback counts
    // reported next to the timings.
    dec.reset();
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto *syn : accepted)
        dec.decode(*syn);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return 1e6 * secs / static_cast<double>(accepted.size());
}

/**
 * Mean per-shot time of one decodeBatchSorted() call (memo off, so
 * every shot is decoded) over the packed CSR shots — the shape
 * MonteCarloEngine feeds decoders, heralded shots included.
 */
double
usPerShotBatch(decoder::Decoder &dec, const BatchStorage &batch,
               std::vector<std::uint32_t> &out)
{
    if (batch.shots == 0)
        return 0.0;
    out.resize(batch.shots);
    const decoder::SyndromeBatch view = batch.view();
    decoder::BatchDecodeScratch scratch;
    // Warm scratch outside the timed call.
    decoder::decodeBatchSorted(dec, view, out, scratch, false);
    dec.reset();
    const auto t0 = std::chrono::steady_clock::now();
    decoder::decodeBatchSorted(dec, view, out, scratch, false);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return 1e6 * secs / static_cast<double>(batch.shots);
}

} // namespace

int
main()
{
    using namespace traq;
    std::printf("=== Decoder throughput: all registered kinds, "
                "p = 1e-3 ===\n\n");
    // Dispatch level the sampler kernels run at while pre-sampling
    // the fixtures (decoders themselves are scalar code).
    std::printf("cpu-dispatch: %s\n\n",
                cpuDispatchName(resolveCpuDispatch(CpuDispatch::Auto)));

    std::vector<Fixture> fixtures;
    fixtures.emplace_back("memory d=3", Fixture::makeMemory(3), 512);
    fixtures.emplace_back("memory d=5", Fixture::makeMemory(5), 512);
    fixtures.emplace_back("cnot d=3", Fixture::makeCnot(3), 512);
    fixtures.emplace_back("cnot d=5", Fixture::makeCnot(5), 256);
    const Fixture &hardest = fixtures.back();

    Table t({"circuit", "decoder", "us/shot", "no cache",
             "+predecode", "peeled", "us/round", "fallbacks",
             "skipped"});
    std::vector<std::pair<std::string, double>> budgetLines;
    std::vector<std::uint32_t> out;
    for (const Fixture &f : fixtures) {
        for (decoder::DecoderKind kind :
             decoder::registeredDecoderKinds()) {
            auto dec = decoder::makeDecoder(kind, f.graph);
            std::size_t skipped = 0;
            BatchStorage batch;
            const double us = usPerShot(*dec, f, &skipped, &batch);
            const double usRound = us / f.rounds;
            // Same accepted shots through the batch driver: first
            // with the reach cache forced off (the delta vs "us/shot",
            // cache on by default, is mostly the Dijkstra-sharing
            // win), then with the predecode peeler in front of the
            // matcher.
            decoder::DecoderConfig noCacheCfg;
            noCacheCfg.reachCache = 0;
            auto decNoCache =
                decoder::makeDecoder(kind, f.graph, noCacheCfg);
            const double usNoCache =
                usPerShotBatch(*decNoCache, batch, out);
            decoder::DecoderConfig preCfg;
            preCfg.predecode = 1;
            auto decPre =
                decoder::makeDecoder(kind, f.graph, preCfg);
            const double usPre = usPerShotBatch(*decPre, batch, out);
            t.addRow({f.label, decoder::decoderKindName(kind),
                      fmtF(us, 1), fmtF(usNoCache, 1),
                      fmtF(usPre, 1),
                      std::to_string(decPre->predecodedPairs()),
                      fmtF(usRound, 2),
                      std::to_string(dec->fallbacks()),
                      std::to_string(skipped)});
            if (&f == &hardest) {
                budgetLines.emplace_back(
                    decoder::decoderKindName(kind), usRound);
                budgetLines.emplace_back(
                    std::string(decoder::decoderKindName(kind)) +
                        "+batch+predecode",
                    usPre / f.rounds);
            }
        }
    }

    // The heralded-loss context path: correlated decoding of the
    // batch with its herald CSR attached.
    const Fixture loss("cnot d=5 + loss", Fixture::makeCnot(5), 256,
                       0.005);
    {
        const auto kind = decoder::DecoderKind::Correlated;
        auto dec = decoder::makeDecoder(kind, loss.graph);
        BatchStorage batch;
        for (std::size_t s = 0; s < loss.syndromes.size(); ++s)
            batch.add(loss.syndromes[s], loss.heralds[s]);
        const double us = usPerShotBatch(*dec, batch, out);
        const std::string name =
            std::string(decoder::decoderKindName(kind)) +
            "+herald-context";
        t.addRow({loss.label, name, fmtF(us, 1), "-", "-", "-",
                  fmtF(us / loss.rounds, 2),
                  std::to_string(dec->fallbacks()), "0"});
        budgetLines.emplace_back(name, us / loss.rounds);
    }
    t.print();

    std::printf("\n(per-round latency on the hardest fixture, %s "
                "over %d rounds, and on %s with heralded contexts, "
                "vs the ~%g us Table I decode budget)\n",
                hardest.label.c_str(), hardest.rounds,
                loss.label.c_str(), kBudgetUsPerRound);
    for (const auto &[name, usRound] : budgetLines) {
        std::printf("decode-latency[%s]: %.2f us/round %s "
                    "(budget %g)\n",
                    name.c_str(), usRound,
                    usRound <= kBudgetUsPerRound ? "PASS" : "WARN",
                    kBudgetUsPerRound);
    }
    return 0;
}
