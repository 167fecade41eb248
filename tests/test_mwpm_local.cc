/**
 * @file
 * Local exact matching vs a global reference matcher.
 *
 * MwpmDecoder bounds each per-defect Dijkstra search by the boundary
 * reaches and runs its matching DP per component of defects that can
 * beat the boundary.  Both are exact only because the tie-broken
 * optimum is unique, so this suite keeps a test-only copy of the
 * global algorithm — a full search from every defect and one 2^m DP
 * over all of them — and requires identical correction masks and
 * identical used-edge multisets on seeded random syndromes of every
 * size up to the cap, on three graphs (d=3 memory, d=5 memory, and
 * the d=5 transversal CNOT with heralded atom loss) and under every
 * context the composite decoders build: the default one (reach
 * cache on and off), herald-zeroed weights, correlated-style boosted
 * weights and a round horizon.
 *
 * Also: an unmatchable syndrome throws FatalError naming the defect
 * instead of aborting, and the reach cache's fixed memory budget
 * leaves room for every source of the benchmark graphs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/decoder/fallback.hh"
#include "src/decoder/mwpm.hh"
#include "src/noise/noise.hh"
#include "src/sim/dem.hh"

namespace traq::decoder {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kCap = 16;  // DecoderConfig::mwpmMaxDefects

struct RefResult
{
    std::uint32_t correction = 0;
    std::vector<std::uint32_t> usedEdges;
};

/**
 * The global algorithm: full single-source Dijkstra from every
 * defect, then the 2^m * m bitmask DP over all defects at once.
 * Returns nullopt when no finite perfect matching exists.
 */
std::optional<RefResult>
referenceMatch(const DecodeGraph &g, std::span<const std::uint32_t> syn,
               const DecodeContext &ctx)
{
    struct Reach
    {
        double dist = kInf;
        std::uint32_t obs = 0;
        std::vector<std::uint32_t> edges;
    };
    auto weightOf = [&](std::uint32_t ei) {
        const double w =
            ctx.weights.empty() ? g.edges()[ei].weight : ctx.weights[ei];
        return (w < 0.0 ? 0.0 : w) + tieBreakEpsilon(ei);
    };
    auto hidden = [&](const GraphEdge &e) {
        return ctx.maxRound >= 0 && e.round > ctx.maxRound;
    };

    const std::size_t m = syn.size();
    std::vector<std::vector<Reach>> pair(m, std::vector<Reach>(m));
    std::vector<Reach> boundary(m);
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<double> dist(g.numNodes(), kInf);
        std::vector<std::int32_t> from(g.numNodes(), -1);
        double bestB = kInf;
        std::int32_t bNode = -1, bEdge = -1;
        using Item = std::pair<double, std::uint32_t>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        dist[syn[i]] = 0.0;
        pq.emplace(0.0, syn[i]);
        while (!pq.empty()) {
            auto [d, u] = pq.top();
            pq.pop();
            if (d > dist[u])
                continue;
            for (std::uint32_t ei : g.incident(u)) {
                const GraphEdge &e = g.edges()[ei];
                if (hidden(e))
                    continue;
                const double w = weightOf(ei);
                if (e.u == kBoundary) {
                    if (d + w < bestB) {
                        bestB = d + w;
                        bNode = static_cast<std::int32_t>(u);
                        bEdge = static_cast<std::int32_t>(ei);
                    }
                    continue;
                }
                const std::uint32_t v =
                    static_cast<std::uint32_t>(e.u) == u
                        ? static_cast<std::uint32_t>(e.v)
                        : static_cast<std::uint32_t>(e.u);
                if (d + w < dist[v]) {
                    dist[v] = d + w;
                    from[v] = static_cast<std::int32_t>(ei);
                    pq.emplace(dist[v], v);
                }
            }
        }
        auto path = [&](std::uint32_t node, Reach *r) {
            for (std::uint32_t cur = node; cur != syn[i];) {
                const GraphEdge &e = g.edges()[from[cur]];
                r->obs ^= e.observables;
                r->edges.push_back(static_cast<std::uint32_t>(from[cur]));
                cur = static_cast<std::uint32_t>(e.u) == cur
                          ? static_cast<std::uint32_t>(e.v)
                          : static_cast<std::uint32_t>(e.u);
            }
        };
        for (std::size_t j = 0; j < m; ++j) {
            pair[i][j].dist = dist[syn[j]];
            if (dist[syn[j]] < kInf)
                path(syn[j], &pair[i][j]);
        }
        boundary[i].dist = bestB;
        if (bNode >= 0) {
            path(static_cast<std::uint32_t>(bNode), &boundary[i]);
            boundary[i].obs ^= g.edges()[bEdge].observables;
            boundary[i].edges.push_back(static_cast<std::uint32_t>(bEdge));
        }
    }

    const std::size_t full = (std::size_t{1} << m) - 1;
    std::vector<double> best(full + 1, kInf);
    std::vector<int> choice(full + 1, -1);
    best[0] = 0.0;
    for (std::size_t mask = 1; mask <= full; ++mask) {
        const int i = __builtin_ctzll(mask);
        const std::size_t rest = mask ^ (std::size_t{1} << i);
        if (best[rest] + boundary[i].dist < best[mask]) {
            best[mask] = best[rest] + boundary[i].dist;
            choice[mask] = -2;
        }
        for (std::size_t sub = rest; sub; sub &= sub - 1) {
            const int j = __builtin_ctzll(sub);
            const double c =
                best[rest ^ (std::size_t{1} << j)] + pair[i][j].dist;
            if (c < best[mask]) {
                best[mask] = c;
                choice[mask] = j;
            }
        }
    }
    if (!(best[full] < kInf))
        return std::nullopt;

    RefResult out;
    for (std::size_t mask = full; mask;) {
        const int i = __builtin_ctzll(mask);
        const Reach *r;
        if (choice[mask] == -2) {
            r = &boundary[i];
            mask ^= std::size_t{1} << i;
        } else {
            const int j = choice[mask];
            r = &pair[i][j];
            mask ^= (std::size_t{1} << i) | (std::size_t{1} << j);
        }
        out.correction ^= r->obs;
        out.usedEdges.insert(out.usedEdges.end(), r->edges.begin(),
                             r->edges.end());
    }
    return out;
}

/** Decode graph of an experiment under heralded atom loss. */
DecodeGraph
atomLossGraph(const codes::Experiment &exp, double p)
{
    noise::NoiseSpec spec;
    spec.setFlat("noise.atom-loss.p", p);
    const sim::Circuit compiled =
        noise::NoiseModel::fromSpec(spec).compile(exp.circuit);
    return DecodeGraph::fromDem(sim::buildDem(compiled), exp.meta);
}

/** The graphs of the three Monte-Carlo benchmark workloads. */
struct Graphs
{
    DecodeGraph memD3 = DecodeGraph::build(codes::buildMemory(
        codes::SurfaceCode(3), 'Z', 3, codes::NoiseParams::uniform(1e-3)));
    DecodeGraph memD5 = DecodeGraph::build(codes::buildMemory(
        codes::SurfaceCode(5), 'Z', 5, codes::NoiseParams::uniform(3e-3)));
    DecodeGraph cnotLoss = [] {
        codes::TransversalCnotSpec spec;
        spec.distance = 5;
        spec.cnotLayers = 4;
        spec.noise = codes::NoiseParams::uniform(1e-3);
        return atomLossGraph(codes::buildTransversalCnot(spec), 0.005);
    }();

    std::vector<std::pair<const char *, const DecodeGraph *>>
    all() const
    {
        return {{"memory d=3", &memD3},
                {"memory d=5", &memD5},
                {"cnot d=5 + loss", &cnotLoss}};
    }
};

const Graphs &
graphs()
{
    static const Graphs g;
    return g;
}

/**
 * Seeded random syndrome of exactly m defects drawn from `pool`.
 * Half the draws are uniform; the other half XOR the endpoints of
 * random error chains grown from random pool nodes, so defects sit
 * close together and the matching has real pair choices to make.
 */
std::vector<std::uint32_t>
randomSyndrome(const DecodeGraph &g,
               const std::vector<std::uint32_t> &pool, std::size_t m,
               std::mt19937_64 &rng)
{
    std::vector<char> on(g.numNodes(), 0);
    std::vector<std::uint32_t> syn;
    auto toggle = [&](std::uint32_t n) { on[n] ^= 1; };
    if (rng() & 1) {
        for (int step = 0; step < 64; ++step) {
            std::uint32_t cur = pool[rng() % pool.size()];
            const int len = 1 + static_cast<int>(rng() % 3);
            toggle(cur);
            for (int k = 0; k < len; ++k) {
                const auto &inc = g.incident(cur);
                if (inc.empty())
                    break;
                const GraphEdge &e = g.edges()[inc[rng() % inc.size()]];
                if (e.u == kBoundary)
                    break;
                cur = static_cast<std::uint32_t>(e.u) == cur
                          ? static_cast<std::uint32_t>(e.v)
                          : static_cast<std::uint32_t>(e.u);
            }
            toggle(cur);
        }
    }
    for (std::uint32_t n : pool)
        if (on[n])
            syn.push_back(n);
    std::shuffle(syn.begin(), syn.end(), rng);
    if (syn.size() > m)
        syn.resize(m);
    while (syn.size() < m) {
        const std::uint32_t n = pool[rng() % pool.size()];
        if (std::find(syn.begin(), syn.end(), n) == syn.end())
            syn.push_back(n);
    }
    std::sort(syn.begin(), syn.end());
    return syn;
}

std::vector<std::uint32_t>
allNodes(const DecodeGraph &g)
{
    std::vector<std::uint32_t> pool(g.numNodes());
    for (std::uint32_t n = 0; n < pool.size(); ++n)
        pool[n] = n;
    return pool;
}

/** Decode with `dec` and require the reference's exact answer. */
void
expectMatchesReference(MwpmDecoder &dec, const DecodeGraph &g,
                       const std::vector<std::uint32_t> &syn,
                       const DecodeContext &ctx, const std::string &what)
{
    const auto ref = referenceMatch(g, syn, ctx);
    ASSERT_TRUE(ref.has_value()) << what;
    std::vector<std::uint32_t> used;
    const std::uint32_t got = dec.decodeEx(syn, ctx, &used);
    ASSERT_EQ(got, ref->correction) << what;
    std::vector<std::uint32_t> want = ref->usedEdges;
    std::sort(used.begin(), used.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(used, want) << what;
    // Without the edge report the decode must not change either.
    ASSERT_EQ(dec.decode(syn, ctx), ref->correction) << what;
}

constexpr int kTrialsPerSize = 12;

TEST(MwpmLocal, DefaultContextMatchesReferenceCacheOnAndOff)
{
    for (const auto &[name, gp] : graphs().all()) {
        const DecodeGraph &g = *gp;
        const auto pool = allNodes(g);
        for (bool cache : {false, true}) {
            MwpmDecoder dec(g, kCap, false, 2, cache);
            std::mt19937_64 rng(11);
            for (std::size_t m = 0; m <= kCap; ++m)
                for (int t = 0; t < kTrialsPerSize; ++t)
                    expectMatchesReference(
                        dec, g, randomSyndrome(g, pool, m, rng), {},
                        std::string(name) + " cache=" +
                            (cache ? "on" : "off") +
                            " m=" + std::to_string(m));
            if (cache)
                EXPECT_GT(dec.reachCacheHits(), 0u) << name;
            else
                EXPECT_EQ(dec.reachCacheHits(), 0u) << name;
        }
    }
}

TEST(MwpmLocal, HeraldZeroedContextMatchesReference)
{
    for (const auto &[name, gp] : graphs().all()) {
        const DecodeGraph &g = *gp;
        const auto pool = allNodes(g);
        MwpmDecoder dec(g, kCap, false, 2, true);
        std::mt19937_64 rng(23);
        std::vector<double> w(g.edges().size());
        for (std::size_t m = 0; m <= kCap; ++m)
            for (int t = 0; t < kTrialsPerSize; ++t) {
                // Zero the edges of a few fired heralds, as the
                // engine does; graphs without herald channels zero
                // random edges instead.
                for (std::size_t ei = 0; ei < w.size(); ++ei)
                    w[ei] = g.edges()[ei].weight;
                for (int h = 0; h < 4; ++h) {
                    if (g.numHeraldChannels() > 0) {
                        const std::uint32_t c = static_cast<std::uint32_t>(
                            rng() % g.numHeraldChannels());
                        for (std::uint32_t ei : g.channelEdges(c))
                            w[ei] = 0.0;
                    } else {
                        w[rng() % w.size()] = 0.0;
                    }
                }
                DecodeContext ctx;
                ctx.weights = w;
                expectMatchesReference(
                    dec, g, randomSyndrome(g, pool, m, rng), ctx,
                    std::string(name) + " heralds m=" +
                        std::to_string(m));
            }
        EXPECT_EQ(dec.reachCacheHits(), 0u) << name;
    }
}

TEST(MwpmLocal, BoostedContextMatchesReference)
{
    for (const auto &[name, gp] : graphs().all()) {
        const DecodeGraph &g = *gp;
        const auto pool = allNodes(g);
        MwpmDecoder dec(g, kCap, false, 2, true);
        std::mt19937_64 rng(37);
        std::uniform_real_distribution<double> post(0.01, 0.5);
        std::vector<double> w(g.edges().size());
        for (std::size_t m = 0; m <= kCap; ++m)
            for (int t = 0; t < kTrialsPerSize; ++t) {
                // Correlated second pass: a handful of edges lowered
                // to the log-odds of a boosted posterior (and one
                // pushed negative, which the matcher clamps to 0).
                for (std::size_t ei = 0; ei < w.size(); ++ei)
                    w[ei] = g.edges()[ei].weight;
                for (int k = 0; k < 12; ++k) {
                    const double p2 = post(rng);
                    w[rng() % w.size()] = std::log((1.0 - p2) / p2);
                }
                w[rng() % w.size()] = -1.0;
                DecodeContext ctx;
                ctx.weights = w;
                expectMatchesReference(
                    dec, g, randomSyndrome(g, pool, m, rng), ctx,
                    std::string(name) + " boosted m=" +
                        std::to_string(m));
            }
    }
}

TEST(MwpmLocal, RoundHorizonMatchesReference)
{
    for (const auto &[name, gp] : graphs().all()) {
        const DecodeGraph &g = *gp;
        MwpmDecoder dec(g, kCap, false, 2, true);
        std::mt19937_64 rng(41);
        for (std::int32_t maxRound = 0; maxRound < g.numRounds();
             ++maxRound) {
            DecodeContext ctx;
            ctx.maxRound = maxRound;
            // Only defects that can still reach the boundary under
            // the horizon: those always have a finite matching.
            std::vector<std::uint32_t> pool;
            for (std::uint32_t n = 0; n < g.numNodes(); ++n) {
                const std::uint32_t one[] = {n};
                if (g.detectorRound(n) <= maxRound &&
                    referenceMatch(g, one, ctx).has_value())
                    pool.push_back(n);
            }
            if (pool.empty())
                continue;
            for (std::size_t m = 0; m <= std::min(kCap, pool.size()); ++m)
                for (int t = 0; t < 4; ++t)
                    expectMatchesReference(
                        dec, g, randomSyndrome(g, pool, m, rng), ctx,
                        std::string(name) + " maxRound=" +
                            std::to_string(maxRound) +
                            " m=" + std::to_string(m));
        }
    }
}

TEST(MwpmLocal, CachedAndBoundedSearchesReportSameEdgeSequence)
{
    // The reach-cache (full snapshot) and bounded-search paths must
    // report the very same used-edge sequence, not only the multiset.
    const DecodeGraph &g = graphs().memD5;
    const auto pool = allNodes(g);
    MwpmDecoder cached(g, kCap, false, 2, true);
    MwpmDecoder bounded(g, kCap, false, 2, false);
    std::mt19937_64 rng(5);
    for (int t = 0; t < 400; ++t) {
        const auto syn =
            randomSyndrome(g, pool, 1 + rng() % kCap, rng);
        std::vector<std::uint32_t> a, b;
        ASSERT_EQ(cached.decodeEx(syn, {}, &a),
                  bounded.decodeEx(syn, {}, &b));
        ASSERT_EQ(a, b);
    }
}

/** A node all of whose edges lie beyond `maxRound`. */
std::optional<std::uint32_t>
hiddenNode(const DecodeGraph &g, std::int32_t maxRound)
{
    for (std::uint32_t n = 0; n < g.numNodes(); ++n) {
        bool allHidden = !g.incident(n).empty();
        for (std::uint32_t ei : g.incident(n))
            allHidden = allHidden && g.edges()[ei].round > maxRound;
        if (allHidden)
            return n;
    }
    return std::nullopt;
}

TEST(MwpmLocal, IsolatedDefectThrowsNamingIt)
{
    const DecodeGraph &g = graphs().memD5;
    DecodeContext ctx;
    ctx.maxRound = 3;
    const auto iso = hiddenNode(g, ctx.maxRound);
    ASSERT_TRUE(iso.has_value());
    // Pair it with a defect that is perfectly matchable on its own.
    std::uint32_t ok = 0;
    while (g.detectorRound(ok) > 0)
        ++ok;
    std::vector<std::uint32_t> syn = {ok, *iso};
    std::sort(syn.begin(), syn.end());
    EXPECT_FALSE(referenceMatch(g, syn, ctx).has_value());

    for (bool cache : {false, true}) {
        MwpmDecoder mwpm(g, kCap, false, 2, cache);
        try {
            mwpm.decode(syn, ctx);
            FAIL() << "isolated defect decoded";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("isolated"), std::string::npos) << msg;
            EXPECT_NE(msg.find("defect " + std::to_string(*iso)),
                      std::string::npos)
                << msg;
        }
        // The decoder stays usable after the throw.
        const std::uint32_t one[] = {ok};
        EXPECT_EQ(mwpm.decode(one, ctx),
                  referenceMatch(g, one, ctx)->correction);
    }
    FallbackDecoder fb(g);
    EXPECT_THROW(fb.decode(syn, ctx), FatalError);
}

TEST(MwpmLocal, OddClusterWithoutBoundaryThrows)
{
    // Three detectors joined by a chain of pair edges and no
    // boundary edge: no perfect matching of all three exists.
    sim::DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    for (std::uint32_t i = 0; i + 1 < 3; ++i) {
        sim::ErrorMechanism e;
        e.probability = 0.01;
        e.detectors = {i, i + 1};
        dem.errors.push_back(e);
    }
    codes::CircuitMeta meta;
    meta.detectorIsX.assign(3, 0);
    meta.observableIsX.assign(1, 0);
    const DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    MwpmDecoder dec(g);
    const std::vector<std::uint32_t> pairUp = {0, 1};
    EXPECT_EQ(dec.decode(pairUp), 0u);
    const std::vector<std::uint32_t> odd = {0, 1, 2};
    try {
        dec.decode(odd);
        FAIL() << "odd cluster decoded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unmatchable"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MwpmLocal, ReachCacheBudgetCoversBenchmarkGraphs)
{
    // One slot per distinct source is the most a graph can use, so a
    // capacity of numNodes() means the budget never turns a
    // benchmark decode into an uncached one.
    for (const auto &[name, gp] : graphs().all()) {
        const MwpmDecoder dec(*gp, kCap, false, 2, true);
        EXPECT_GE(dec.reachCacheSlotCapacity(), gp->numNodes()) << name;
    }
    const MwpmDecoder off(graphs().memD3);
    EXPECT_EQ(off.reachCacheSlotCapacity(), 0u);
}

} // namespace
} // namespace traq::decoder
