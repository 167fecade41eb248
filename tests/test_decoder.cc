/**
 * @file
 * Tests for decoding-graph construction, the union-find decoder, and
 * the exact MWPM decoder on hand-built graphs and small experiments.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/decoder/decode_graph.hh"
#include "src/decoder/mwpm.hh"
#include "src/decoder/union_find.hh"
#include "src/sim/dem.hh"

namespace traq::decoder {
namespace {

using codes::CircuitMeta;
using sim::DetectorErrorModel;
using sim::ErrorMechanism;

/** Hand-built DEM: a 1D repetition-code-like chain of n detectors. */
DetectorErrorModel
chainDem(int n, double p)
{
    DetectorErrorModel dem;
    dem.numDetectors = n;
    dem.numObservables = 1;
    // Boundary edge at node 0 carries the observable.
    ErrorMechanism left;
    left.probability = p;
    left.detectors = {0};
    left.observables = 1;
    dem.errors.push_back(left);
    for (int i = 0; i + 1 < n; ++i) {
        ErrorMechanism e;
        e.probability = p;
        e.detectors = {static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(i + 1)};
        dem.errors.push_back(e);
    }
    ErrorMechanism right;
    right.probability = p;
    right.detectors = {static_cast<std::uint32_t>(n - 1)};
    dem.errors.push_back(right);
    return dem;
}

CircuitMeta
chainMeta(int n)
{
    CircuitMeta meta;
    meta.detectorIsX.assign(n, 0);
    meta.observableIsX.assign(1, 0);
    return meta;
}

TEST(Graph, ChainStructure)
{
    auto dem = chainDem(4, 0.01);
    DecodingGraph g = DecodingGraph::fromDem(dem, chainMeta(4));
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.edges().size(), 5u);
    EXPECT_EQ(g.numUnsplittable(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    // Node 0 must touch 2 edges (boundary + chain).
    EXPECT_EQ(g.incident(0).size(), 2u);
    EXPECT_EQ(g.incident(1).size(), 2u);
}

TEST(Graph, MergesParallelMechanisms)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 0;
    ErrorMechanism a;
    a.probability = 0.1;
    a.detectors = {0, 1};
    dem.errors.push_back(a);
    dem.errors.push_back(a);
    CircuitMeta meta;
    meta.detectorIsX.assign(2, 0);
    DecodingGraph g = DecodingGraph::fromDem(dem, meta);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_NEAR(g.edges()[0].probability, 0.1 * 0.9 + 0.9 * 0.1,
                1e-12);
}

TEST(Graph, SplitsByBasis)
{
    // A Y-like mechanism touching one X-basis and one Z-basis
    // detector becomes two boundary edges, one per basis subgraph.
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    ErrorMechanism y;
    y.probability = 0.05;
    y.detectors = {0, 1};
    y.observables = 1;
    dem.errors.push_back(y);
    CircuitMeta meta;
    meta.detectorIsX = {0, 1};   // detector 0 Z-basis, detector 1 X
    meta.observableIsX = {0};    // Z observable
    DecodingGraph g = DecodingGraph::fromDem(dem, meta);
    ASSERT_EQ(g.edges().size(), 2u);
    // The Z-basis part (detector 0) carries the observable.
    for (const auto &e : g.edges()) {
        if (e.v == 0)
            EXPECT_EQ(e.observables, 1u);
        else
            EXPECT_EQ(e.observables, 0u);
    }
}

TEST(Graph, CountsUndetectableLogical)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.numObservables = 1;
    ErrorMechanism bad;
    bad.probability = 0.01;
    bad.detectors = {};
    bad.observables = 1;
    dem.errors.push_back(bad);
    CircuitMeta meta;
    meta.detectorIsX = {0};
    meta.observableIsX = {0};
    DecodingGraph g = DecodingGraph::fromDem(dem, meta);
    EXPECT_EQ(g.numUndetectableLogical(), 1u);
}

class ChainDecoders
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ChainDecoders, SingleErrorsCorrected)
{
    auto [n, which] = GetParam();
    auto dem = chainDem(n, 0.01);
    DecodingGraph g = DecodingGraph::fromDem(dem, chainMeta(n));
    UnionFindDecoder uf(g);
    MwpmDecoder mwpm(g);
    // Every single mechanism's syndrome must decode back to its own
    // observable effect.
    for (const auto &mech : dem.errors) {
        std::uint32_t predicted =
            which == 0 ? uf.decode(mech.detectors)
                       : mwpm.decode(mech.detectors);
        EXPECT_EQ(predicted, mech.observables);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChainDecoders,
    ::testing::Combine(::testing::Values(3, 5, 9, 15),
                       ::testing::Values(0, 1)));

TEST(UnionFind, EmptySyndromeIsTrivial)
{
    auto dem = chainDem(5, 0.01);
    DecodingGraph g = DecodingGraph::fromDem(dem, chainMeta(5));
    UnionFindDecoder uf(g);
    EXPECT_EQ(uf.decode({}), 0u);
}

TEST(UnionFind, PairPreferredOverDoubleBoundary)
{
    // Two adjacent defects in the middle of a long chain should be
    // matched together (no logical flip), not via two boundary exits.
    auto dem = chainDem(9, 0.01);
    DecodingGraph g = DecodingGraph::fromDem(dem, chainMeta(9));
    UnionFindDecoder uf(g);
    EXPECT_EQ(uf.decode(std::vector<std::uint32_t>{4, 5}), 0u);
}

TEST(UnionFind, EdgeDefectExitsBoundary)
{
    auto dem = chainDem(9, 0.01);
    DecodingGraph g = DecodingGraph::fromDem(dem, chainMeta(9));
    UnionFindDecoder uf(g);
    // Defect at node 0: nearest explanation is the left boundary
    // edge, which flips the observable.
    EXPECT_EQ(uf.decode(std::vector<std::uint32_t>{0}), 1u);
    // Defect at the right end: right boundary, no observable.
    EXPECT_EQ(uf.decode(std::vector<std::uint32_t>{8}), 0u);
}

TEST(Mwpm, MatchesBruteForceOnSmallGraphs)
{
    // Triangle-ish graph with distinct weights; enumerate all defect
    // subsets of size <= 4 and compare MWPM to exhaustive search over
    // edge subsets.
    DetectorErrorModel dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    auto addE = [&](std::vector<std::uint32_t> d, double p,
                    std::uint32_t obs) {
        ErrorMechanism e;
        e.detectors = std::move(d);
        e.probability = p;
        e.observables = obs;
        dem.errors.push_back(e);
    };
    addE({0}, 0.03, 1);
    addE({0, 1}, 0.01, 0);
    addE({1, 2}, 0.02, 0);
    addE({2, 3}, 0.01, 1);
    addE({3}, 0.015, 0);
    addE({0, 2}, 0.004, 1);
    CircuitMeta meta;
    meta.detectorIsX.assign(4, 0);
    meta.observableIsX.assign(1, 0);
    DecodingGraph g = DecodingGraph::fromDem(dem, meta);
    MwpmDecoder mwpm(g);

    // Brute force: over all subsets of mechanisms, find min weight
    // subset reproducing the syndrome; compare observable parity.
    auto bruteForce = [&](const std::vector<std::uint32_t> &syn) {
        double bestW = 1e300;
        std::uint32_t bestObs = 0;
        const std::size_t m = dem.errors.size();
        for (std::size_t mask = 0; mask < (1u << m); ++mask) {
            std::vector<int> par(4, 0);
            double w = 0;
            std::uint32_t obs = 0;
            for (std::size_t i = 0; i < m; ++i) {
                if (!(mask & (1u << i)))
                    continue;
                const auto &e = dem.errors[i];
                for (auto d : e.detectors)
                    par[d] ^= 1;
                obs ^= e.observables;
                w += std::log((1 - e.probability) / e.probability);
            }
            std::vector<int> want(4, 0);
            for (auto d : syn)
                want[d] = 1;
            if (par == want && w < bestW) {
                bestW = w;
                bestObs = obs;
            }
        }
        return bestObs;
    };

    std::vector<std::vector<std::uint32_t>> syndromes = {
        {}, {0}, {1}, {3}, {0, 1}, {1, 2}, {0, 3}, {1, 3},
        {0, 1, 2, 3}, {0, 2}, {2, 3}, {0, 1, 3},
    };
    for (const auto &syn : syndromes) {
        if (syn.empty()) {
            EXPECT_EQ(mwpm.decode(syn), 0u);
            continue;
        }
        EXPECT_EQ(mwpm.decode(syn), bruteForce(syn))
            << "syndrome size " << syn.size();
    }
}

TEST(Mwpm, CapEnforced)
{
    auto dem = chainDem(30, 0.01);
    DecodingGraph g = DecodingGraph::fromDem(dem, chainMeta(30));
    MwpmDecoder mwpm(g, 4);
    std::vector<std::uint32_t> syn{0, 3, 7, 11, 15};
    EXPECT_FALSE(mwpm.canDecode(syn));
    EXPECT_THROW(mwpm.decode(syn), traq::FatalError);
    EXPECT_THROW(MwpmDecoder(g, 30), traq::FatalError);
}

TEST(DecoderOnRealCircuit, GraphIsCleanForMemory)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(1e-3));
    auto dem = sim::buildDem(e.circuit);
    DecodingGraph g = DecodingGraph::fromDem(dem, e.meta);
    EXPECT_EQ(g.numUnsplittable(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    EXPECT_GT(g.edges().size(), 50u);
}

TEST(DecoderOnRealCircuit, TransversalCnotHasHyperedgesButNoBlindSpots)
{
    // Transversal CNOTs genuinely create >2-detector mechanisms per
    // basis (an X error that propagates across patches fires Z
    // detectors in both) — that is the correlated-decoding structure
    // of Refs [17,18].  The graph builder decomposes them into pairs
    // linked as partners; what must never happen is an invisible
    // logical error.
    codes::TransversalCnotSpec spec;
    spec.distance = 3;
    spec.cnotLayers = 3;
    spec.noise = codes::NoiseParams::uniform(1e-3);
    auto e = codes::buildTransversalCnot(spec);
    auto dem = sim::buildDem(e.circuit);
    DecodingGraph g = DecodingGraph::fromDem(dem, e.meta);
    EXPECT_GT(g.numUnsplittable(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    // The decomposed halves remember each other.
    EXPECT_GT(g.numPartnerLinks(), 0u);
}

} // namespace
} // namespace traq::decoder
