#include "replay.hh"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/rng.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/global_memo.hh"
#include "src/sim/frame.hh"

namespace perfbench {

using namespace traq;
using decoder::GlobalDecodeMemo;

namespace {

/** Erasure-path memo key over (defects, fired heralds); a full
 *  compare resolves collisions, so any mixing function is exact. */
std::uint64_t
hashShot(std::span<const std::uint32_t> syn,
         std::span<const std::uint32_t> heralds)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ syn.size();
    for (std::uint32_t x : syn)
        h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= 0xc2b2ae3d27d4eb4fULL + heralds.size();
    for (std::uint32_t c : heralds)
        h ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/** Everything the engine resolves once per run. */
struct Resolved
{
    decoder::DecoderKind kind{};
    decoder::DecoderConfig cfg;
    bool memo = true;
    GlobalDecodeMemo *global = nullptr;
    decoder::DecodeSetupKey key;
    unsigned lanes = 1;
    CpuDispatch dispatch = CpuDispatch::Auto;
    std::uint64_t shardUnit = 0;
};

Resolved
resolve(const decoder::McOptions &o, const decoder::DecodeGraph &graph)
{
    Resolved r;
    r.kind = decoder::resolveDecoderKind(o.decoder);
    r.cfg.mwpmMaxDefects = o.mwpmMaxDefects;
    r.cfg.correlationBoost = o.correlationBoost;
    r.cfg.windowRounds = o.windowRounds;
    r.cfg.commitRounds = o.commitRounds;
    r.cfg.predecode = decoder::resolvePredecode(o.predecode) ? 1 : 0;
    r.cfg.predecodeRadius = o.predecodeRadius;
    r.cfg.reachCache = decoder::resolveReachCache(o.reachCache) ? 1 : 0;
    r.memo = decoder::resolveDecodeMemo(o.decodeMemo);
    r.global = r.memo && decoder::resolveGlobalMemo(o.globalMemo)
                   ? &GlobalDecodeMemo::instance()
                   : nullptr;
    r.key = decoder::decodeSetupKey(graph, r.kind, r.cfg);
    r.lanes = wordBackendLanes(o.wordBackend);
    r.dispatch = resolveCpuDispatch(o.cpuDispatch);
    const std::uint64_t batch = 64ULL * r.lanes;
    r.shardUnit = std::max<std::uint64_t>(batch, o.shardShots);
    r.shardUnit = (r.shardUnit + batch - 1) / batch * batch;
    return r;
}

/** The shard-loop state one engine worker keeps across shards. */
struct Replayer
{
    Replayer(const decoder::McOptions &opts_,
             const decoder::CompiledDecodeSetup &setup,
             const sim::Circuit &circuit_, SpanRecorder &spans_)
        : opts(opts_), graph(setup.graph), circuit(circuit_),
          spans(spans_), r(resolve(opts_, setup.graph)),
          fsim(0, r.lanes, r.dispatch), live(r.lanes, 0),
          predicted(64ULL * r.lanes, 0)
    {
        dec = decoder::makeDecoder(r.kind, graph, r.cfg);
        erasureAware =
            circuit.numHeraldChannels() > 0 && opts.erasureAware;
        if (erasureAware)
            for (const auto &e : graph.edges())
                ctxWeights.push_back(e.weight);
    }

    void shard(std::uint64_t index, std::uint64_t shardShots,
               std::uint32_t root);
    void decodeErasure(std::uint64_t n);

    const decoder::McOptions &opts;
    const decoder::DecodeGraph &graph;
    const sim::Circuit &circuit;
    SpanRecorder &spans;
    Resolved r;
    bool erasureAware = false;
    std::unique_ptr<decoder::Decoder> dec;
    sim::FrameSimulator fsim;
    sim::FrameBatch batch;
    std::vector<std::uint64_t> live;
    sim::SyndromeBlock block;
    decoder::SyndromeBatch view;
    std::vector<std::uint32_t> predicted;
    decoder::BatchDecodeScratch scratch;
    std::vector<double> ctxWeights;
    std::vector<std::uint32_t> ctxTouched;
    std::unordered_map<std::uint64_t, std::uint32_t> heraldMemo;
    std::vector<std::uint64_t> shotFallbacks;
    std::vector<std::uint64_t> shotPeels;
    ReplayStats st;
    std::uint64_t replayedFallbacks = 0;
    std::uint64_t replayedPeels = 0;
};

void
Replayer::decodeErasure(std::uint64_t n)
{
    if (r.memo) {
        heraldMemo.clear();
        shotFallbacks.assign(n, 0);
        shotPeels.assign(n, 0);
    }
    for (std::uint64_t s = 0; s < n; ++s) {
        const auto syn = view.syndrome(s);
        const auto heralds = block.heralds(s);
        if (r.memo) {
            auto [it, inserted] = heraldMemo.try_emplace(
                hashShot(syn, heralds), static_cast<std::uint32_t>(s));
            if (!inserted) {
                const std::uint32_t p = it->second;
                const auto psyn = view.syndrome(p);
                const auto pher = block.heralds(p);
                if (std::ranges::equal(syn, psyn) &&
                    std::ranges::equal(heralds, pher)) {
                    predicted[s] = predicted[p];
                    shotFallbacks[s] = shotFallbacks[p];
                    shotPeels[s] = shotPeels[p];
                    replayedFallbacks += shotFallbacks[p];
                    replayedPeels += shotPeels[p];
                    ++st.batchMemoHits;
                    continue;
                }
            }
            if (r.global != nullptr) {
                GlobalDecodeMemo::Value v;
                if (r.global->lookup(r.key, syn, heralds, v)) {
                    predicted[s] = v.predicted;
                    shotFallbacks[s] = v.fallbacks;
                    shotPeels[s] = v.peels;
                    replayedFallbacks += v.fallbacks;
                    replayedPeels += v.peels;
                    ++st.globalMemoHits;
                    continue;
                }
            }
        }
        const std::uint64_t fb0 = dec->fallbacks();
        const std::uint64_t pp0 = dec->predecodedPairs();
        if (heralds.empty()) {
            predicted[s] = dec->decodeSpan(syn);
        } else {
            // Fired channels' edges cost nothing to traverse: an
            // erased qubit's replacement Pauli carries no evidence.
            for (std::uint32_t c : heralds)
                for (std::uint32_t ei : graph.channelEdges(c))
                    if (ctxWeights[ei] != 0.0) {
                        ctxTouched.push_back(ei);
                        ctxWeights[ei] = 0.0;
                    }
            decoder::DecodeContext ctx;
            ctx.weights = ctxWeights;
            predicted[s] = dec->decodeWithContext(syn, ctx);
            for (std::uint32_t ei : ctxTouched)
                ctxWeights[ei] = graph.edges()[ei].weight;
            ctxTouched.clear();
        }
        if (r.memo) {
            shotFallbacks[s] = dec->fallbacks() - fb0;
            shotPeels[s] = dec->predecodedPairs() - pp0;
            if (r.global != nullptr)
                r.global->insert(
                    r.key, syn, heralds,
                    {predicted[s],
                     static_cast<std::uint32_t>(shotFallbacks[s]),
                     static_cast<std::uint32_t>(shotPeels[s])});
        }
    }
}

void
Replayer::shard(std::uint64_t index, std::uint64_t shardShots,
                std::uint32_t root)
{
    const std::uint32_t shardSpan =
        spans.open("engine.shard", index, root, nowNs());
    fsim.rng() = Rng(opts.seed, index);
    const std::uint64_t batchShots = fsim.shotsPerBatch();
    std::uint64_t done = 0;
    while (done < shardShots) {
        const std::int64_t t0 = nowNs();
        const std::uint32_t batchSpan =
            spans.open("engine.batch", index, shardSpan, t0);
        fsim.sampleInto(circuit, batch);
        const std::int64_t t1 = nowNs();

        const std::uint64_t n =
            std::min<std::uint64_t>(batchShots, shardShots - done);
        for (unsigned l = 0; l < r.lanes; ++l) {
            const std::uint64_t lo = 64ULL * l;
            const std::uint64_t here =
                n <= lo ? 0 : std::min<std::uint64_t>(64, n - lo);
            live[l] = here == 64 ? ~0ULL : ((1ULL << here) - 1);
        }
        sim::extractSyndromeBlock(batch, live, block);
        view.offsets = {block.offsets.data(),
                        static_cast<std::size_t>(n) + 1};
        view.defects = {block.defects.data(), block.offsets[n]};
        const std::int64_t t2 = nowNs();

        if (erasureAware) {
            decodeErasure(n);
        } else {
            const decoder::BatchDecodeStats bs =
                decoder::decodeBatchSorted(
                    *dec, view,
                    {predicted.data(), static_cast<std::size_t>(n)},
                    scratch, r.memo, r.global, r.key);
            st.batchMemoHits += bs.memoHits;
            st.globalMemoHits += bs.globalHits;
            replayedFallbacks += bs.replayedFallbacks;
            replayedPeels += bs.replayedPeels;
        }
        const std::int64_t t3 = nowNs();

        st.defects += block.offsets[n];
        for (std::uint64_t s = 0; s < n; ++s) {
            st.heraldedShots +=
                block.heraldOffsets[s + 1] > block.heraldOffsets[s];
            st.failures += (predicted[s] ^ block.observables[s]) != 0;
        }
        done += n;
        st.shots += n;
        const std::int64_t t4 = nowNs();

        spans.add("sim.sample", index, batchSpan, t0, t1);
        spans.add("sim.extract", index, batchSpan, t1, t2);
        spans.add("decoder.decode", index, batchSpan, t2, t3);
        spans.add("engine.tally", index, batchSpan, t3, t4);
        spans.finish(batchSpan, t4);
        st.sampleNs += t1 - t0;
        st.extractNs += t2 - t1;
        st.decodeNs += t3 - t2;
        st.tallyNs += t4 - t3;
    }
    spans.finish(shardSpan, nowNs());
}

} // namespace

ReplayStats
replayEngine(const codes::Experiment &exp,
             const decoder::McOptions &opts, SpanRecorder &spans)
{
    // Compiling is set-up, not part of the run the engine times.
    const auto setup = decoder::compileDecodeSetup(
        exp, opts.noiseSpec,
        decoder::resolveCompileCache(opts.compileCache));
    const sim::Circuit &circuit =
        setup->compiled ? *setup->compiled : exp.circuit;
    const std::int64_t start = nowNs();
    const std::uint32_t root = spans.open("engine.run", 0, 0, start);
    Replayer w(opts, *setup, circuit, spans);
    const std::uint64_t unit = w.r.shardUnit;
    const std::uint64_t numShards = (opts.shots + unit - 1) / unit;
    const std::uint64_t fb0 = w.dec->fallbacks();
    const std::uint64_t pp0 = w.dec->predecodedPairs();
    for (std::uint64_t s = 0; s < numShards; ++s)
        w.shard(s, std::min<std::uint64_t>(unit, opts.shots - s * unit),
                root);
    ReplayStats st = w.st;
    st.fallbacks = w.dec->fallbacks() - fb0 + w.replayedFallbacks;
    st.predecodedPairs =
        w.dec->predecodedPairs() - pp0 + w.replayedPeels;
    const std::int64_t end = nowNs();
    spans.finish(root, end);
    st.wallNs = end - start;
    return st;
}

} // namespace perfbench
