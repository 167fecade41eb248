#include "src/decoder/mwpm.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <string>

#include "src/common/assert.hh"

namespace traq::decoder {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Reach-cache memory budget, in snapshot entries (slots x nodes, 12
// bytes each): about 48 MiB per decoder.  One slot snapshots the
// whole graph, so a large graph gets fewer slots and one above the
// budget gets none; sources beyond it run the uncached search, which
// is bit-identical, so the budget is purely a resource cap.
constexpr std::size_t kReachCacheMaxEntries = std::size_t{1} << 22;

/** True if the context hides this edge (beyond the round horizon). */
inline bool
ctxHides(const GraphEdge &e, const DecodeContext &ctx)
{
    return ctx.maxRound >= 0 && e.round > ctx.maxRound;
}

} // namespace

MwpmDecoder::MwpmDecoder(const DecodeGraph &graph,
                         std::size_t maxDefects, bool predecode,
                         int predecodeRadius, bool reachCache)
    : Decoder(graph), maxDefects_(maxDefects), reachCache_(reachCache)
{
    TRAQ_REQUIRE(maxDefects_ <= 22,
                 "bitmask matching is limited to 22 defects");
    if (predecode)
        pre_ = std::make_unique<Predecoder>(graph_, predecodeRadius);
    // Clamped default weights plus the tie-break epsilon (see
    // tieBreakEpsilon), which the predecode identity relies on: it
    // makes the optimal matching generically unique.
    eps_.reserve(graph_.edges().size());
    weight_.reserve(graph_.edges().size());
    for (std::uint32_t ei = 0; ei < graph_.edges().size(); ++ei) {
        const double w = graph_.edges()[ei].weight;
        eps_.push_back(tieBreakEpsilon(ei));
        weight_.push_back((w < 0.0 ? 0.0 : w) + eps_.back());
    }
    distStamp_.assign(graph_.numNodes(), 0);
    dist_.assign(graph_.numNodes(), kInf);
    fromEdge_.assign(graph_.numNodes(), -1);
    if (reachCache_) {
        cacheStampOf_.assign(graph_.numNodes(), 0);
        cacheSlotOf_.assign(graph_.numNodes(), 0);
    }
}

void
MwpmDecoder::invalidateReachCache()
{
    if (!reachCache_)
        return;
    slots_.clear();
    if (++cacheEpoch_ == 0) {
        std::fill(cacheStampOf_.begin(), cacheStampOf_.end(), 0);
        cacheEpoch_ = 1;
    }
}

std::size_t
MwpmDecoder::reachCacheSlotCapacity() const
{
    if (!reachCache_)
        return 0;
    return kReachCacheMaxEntries /
           std::max<std::size_t>(graph_.numNodes(), 1);
}

void
MwpmDecoder::searchFrom(std::uint32_t source, const DecodeContext &ctx,
                        double slack)
{
    // One stamp epoch per search: dist_/fromEdge_ are valid only for
    // nodes the search actually reached, so the reset is O(1), not
    // O(nodes).
    if (++epoch_ == 0) {
        std::fill(distStamp_.begin(), distStamp_.end(), 0);
        epoch_ = 1;
    }
    auto distOf = [&](std::uint32_t node) {
        return distStamp_[node] == epoch_ ? dist_[node] : kInf;
    };
    double bestBoundary = kInf;
    std::int32_t boundaryEdgeNode = -1;  // node from which we exit
    std::int32_t boundaryEdge = -1;

    // Context-aware edge weight: an override wins, clamped to >= 0 so
    // a posterior-boosted (near-certain) edge cannot go negative.
    const double *override =
        ctx.weights.empty() ? nullptr : ctx.weights.data();
    auto weightOf = [&](std::uint32_t ei) {
        if (!override)
            return weight_[ei];
        const double w = override[ei];
        return (w < 0.0 ? 0.0 : w) + eps_[ei];
    };

    constexpr std::greater<> minHeap;
    heap_.clear();
    distStamp_[source] = epoch_;
    dist_[source] = 0.0;
    fromEdge_[source] = -1;
    heap_.emplace_back(0.0, source);

    while (!heap_.empty()) {
        auto [d, u] = heap_.front();
        // Every node below the stop key is settled and the boundary
        // exit can no longer improve: what lies further out costs at
        // least as much as the boundary for any later target.
        if (d >= bestBoundary + slack)
            break;
        std::pop_heap(heap_.begin(), heap_.end(), minHeap);
        heap_.pop_back();
        if (d > dist_[u])
            continue;
        for (std::uint32_t ei : graph_.incident(u)) {
            const GraphEdge &e = graph_.edges()[ei];
            if (ctxHides(e, ctx))
                continue;
            const double w = weightOf(ei);
            if (e.u == kBoundary) {
                if (d + w < bestBoundary) {
                    bestBoundary = d + w;
                    boundaryEdgeNode = static_cast<std::int32_t>(u);
                    boundaryEdge = static_cast<std::int32_t>(ei);
                }
                continue;
            }
            std::uint32_t v = (static_cast<std::uint32_t>(e.u) == u)
                                  ? static_cast<std::uint32_t>(e.v)
                                  : static_cast<std::uint32_t>(e.u);
            if (d + w < distOf(v)) {
                distStamp_[v] = epoch_;
                dist_[v] = d + w;
                fromEdge_[v] = static_cast<std::int32_t>(ei);
                heap_.emplace_back(dist_[v], v);
                std::push_heap(heap_.begin(), heap_.end(), minHeap);
            }
        }
    }
    searchBoundaryDist_ = bestBoundary;
    searchBoundaryNode_ = boundaryEdgeNode;
    searchBoundaryEdge_ = boundaryEdge;
}

template <class DistFn, class EdgeFn>
void
MwpmDecoder::fillReaches(std::span<const std::uint32_t> syn,
                         std::size_t i, bool wantEdges, DistFn distOf,
                         EdgeFn fromEdgeOf, double boundaryDist,
                         std::int32_t boundaryNode,
                         std::int32_t boundaryEdge)
{
    const std::uint32_t source = syn[i];
    auto fillPath = [&](std::uint32_t node, Reach *r) {
        r->obs = 0;
        r->edges.clear();
        std::uint32_t cur = node;
        while (cur != source) {
            std::int32_t ei = fromEdgeOf(cur);
            TRAQ_ASSERT(ei >= 0, "broken Dijkstra predecessor chain");
            const GraphEdge &e = graph_.edges()[ei];
            r->obs ^= e.observables;
            if (wantEdges)
                r->edges.push_back(static_cast<std::uint32_t>(ei));
            cur = (static_cast<std::uint32_t>(e.u) == cur)
                      ? static_cast<std::uint32_t>(e.v)
                      : static_cast<std::uint32_t>(e.u);
        }
    };

    Reach &boundary = toBoundary_[i];
    boundary.dist = boundaryDist;
    boundary.obs = 0;
    boundary.edges.clear();
    if (boundaryNode >= 0) {
        fillPath(static_cast<std::uint32_t>(boundaryNode), &boundary);
        boundary.obs ^= graph_.edges()[boundaryEdge].observables;
        boundary.edges.push_back(
            static_cast<std::uint32_t>(boundaryEdge));
    }

    // A pair with d_ij >= b_i + b_j is never matched (both defects
    // reach the boundary for no more).  That test also rejects every
    // target a bounded search left unsettled: its tentative distance
    // is at least the stop key b_i + max_{k>i} b_k.
    const std::size_t m = syn.size();
    for (std::size_t j = i + 1; j < m; ++j) {
        Reach &r = pair_[pairIndex(i, j, m)];
        const double d = distOf(syn[j]);
        r.obs = 0;
        r.edges.clear();
        if (d < boundaryDist + toBoundary_[j].dist) {
            r.dist = d;
            fillPath(syn[j], &r);
        } else {
            r.dist = kInf;
        }
    }
}

const MwpmDecoder::SsspSlot &
MwpmDecoder::ensureSlot(std::uint32_t source, const DecodeContext &ctx)
{
    if (cacheStampOf_[source] == cacheEpoch_) {
        ++cacheHits_;
        return slots_[cacheSlotOf_[source]];
    }
    // First occurrence of this source in the current epoch: run the
    // real search into the epoch-stamped scratch, then snapshot it.
    // The snapshot IS the scratch state, so the cached and uncached
    // paths read identical distances and predecessor edges.
    searchFrom(source, ctx, kInf);
    cacheStampOf_[source] = cacheEpoch_;
    cacheSlotOf_[source] = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    SsspSlot &slot = slots_.back();
    const std::size_t n = graph_.numNodes();
    slot.dist.assign(n, kInf);
    slot.fromEdge.assign(n, -1);
    for (std::size_t node = 0; node < n; ++node) {
        if (distStamp_[node] == epoch_) {
            slot.dist[node] = dist_[node];
            slot.fromEdge[node] = fromEdge_[node];
        }
    }
    slot.boundaryDist = searchBoundaryDist_;
    slot.boundaryNode = searchBoundaryNode_;
    slot.boundaryEdge = searchBoundaryEdge_;
    return slot;
}

std::uint32_t
MwpmDecoder::decodeEx(std::span<const std::uint32_t> syndrome,
                      const DecodeContext &ctx,
                      std::vector<std::uint32_t> *usedEdges)
{
    TRAQ_REQUIRE(ctx.weights.empty() ||
                     ctx.weights.size() == graph_.edges().size(),
                 "context weight override size mismatch");
    if (syndrome.empty())
        return 0;
    // The cap is checked against the original syndrome, not the
    // post-peel residue, so predecode cannot change what this
    // decoder accepts (or how FallbackDecoder routes).
    TRAQ_REQUIRE(syndrome.size() <= maxDefects_,
                 "syndrome exceeds exact matching cap");

    std::uint32_t preCorrection = 0;
    std::span<const std::uint32_t> syn = syndrome;
    if (pre_ && ctx.weights.empty()) {
        preCorrection = pre_->peel(syndrome, ctx, residue_,
                                   usedEdges);
        syn = residue_;
    }
    const std::size_t m = syn.size();
    if (m == 0)
        return preCorrection;

    // Boundary exits and the pairs that can beat them, searched from
    // the last defect down so every target's b_j is known when the
    // search from defect i runs.  The reach cache only answers
    // default-context searches: weight overrides (correlated second
    // pass) and round horizons (windowed) change the metric, so
    // those decodes always run the uncached search.
    const bool cacheable =
        reachCache_ && ctx.weights.empty() && ctx.maxRound < 0;
    const std::size_t slotCap = reachCacheSlotCapacity();
    const bool wantEdges = usedEdges != nullptr;
    pair_.resize(std::max(pair_.size(), m * (m - 1) / 2));
    toBoundary_.resize(std::max(toBoundary_.size(), m));
    double maxLaterBoundary = 0.0;
    for (std::size_t i = m; i-- > 0;) {
        if (cacheable && (cacheStampOf_[syn[i]] == cacheEpoch_ ||
                          slots_.size() < slotCap)) {
            const SsspSlot &slot = ensureSlot(syn[i], ctx);
            fillReaches(
                syn, i, wantEdges,
                [&](std::uint32_t node) { return slot.dist[node]; },
                [&](std::uint32_t node) {
                    return slot.fromEdge[node];
                },
                slot.boundaryDist, slot.boundaryNode,
                slot.boundaryEdge);
        } else {
            searchFrom(syn[i], ctx, maxLaterBoundary);
            fillReaches(
                syn, i, wantEdges,
                [&](std::uint32_t node) {
                    return distStamp_[node] == epoch_ ? dist_[node]
                                                      : kInf;
                },
                [&](std::uint32_t node) { return fromEdge_[node]; },
                searchBoundaryDist_, searchBoundaryNode_,
                searchBoundaryEdge_);
        }
        maxLaterBoundary =
            std::max(maxLaterBoundary, toBoundary_[i].dist);
    }

    // Defects i, j are compatible when d_ij < b_i + b_j.  The optimum
    // pairs only compatible defects, so it is the union of the optima
    // of the compatibility graph's connected components.
    adj_.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = i + 1; j < m; ++j)
            if (pair_[pairIndex(i, j, m)].dist < kInf) {
                adj_[i] |= std::uint32_t{1} << j;
                adj_[j] |= std::uint32_t{1} << i;
            }
    partner_.assign(m, -1);
    std::uint32_t unvisited =
        static_cast<std::uint32_t>((std::uint64_t{1} << m) - 1);
    while (unvisited) {
        std::uint32_t comp = unvisited & (~unvisited + 1);
        std::uint32_t frontier = comp;
        while (frontier) {
            const int v = std::countr_zero(frontier);
            frontier &= frontier - 1;
            const std::uint32_t grow = adj_[v] & ~comp;
            comp |= grow;
            frontier |= grow;
        }
        unvisited &= ~comp;
        matchComponent(syn, comp);
    }

    // Accumulate observable masks / used edges in ascending order of
    // each pair's lower defect — the order one global DP's
    // reconstruction visits them in.
    std::uint32_t correction = preCorrection;
    for (std::size_t i = 0; i < m; ++i) {
        const std::int32_t j = partner_[i];
        const Reach *r;
        if (j == -2)
            r = &toBoundary_[i];
        else if (static_cast<std::size_t>(j) > i)
            r = &pair_[pairIndex(i, static_cast<std::size_t>(j), m)];
        else
            continue;  // emitted with its lower partner
        correction ^= r->obs;
        if (usedEdges)
            usedEdges->insert(usedEdges->end(), r->edges.begin(),
                              r->edges.end());
    }
    return correction;
}

void
MwpmDecoder::matchComponent(std::span<const std::uint32_t> syn,
                            std::uint32_t comp)
{
    const std::size_t m = syn.size();
    compIdx_.clear();
    for (std::uint32_t rest = comp; rest; rest &= rest - 1)
        compIdx_.push_back(
            static_cast<std::uint32_t>(std::countr_zero(rest)));
    const std::size_t k = compIdx_.size();
    if (k == 1) {
        const std::uint32_t i = compIdx_[0];
        TRAQ_REQUIRE(toBoundary_[i].dist < kInf,
                     "unmatchable syndrome: defect " +
                         std::to_string(syn[i]) +
                         " is isolated (no boundary path and no "
                         "reachable partner)");
        partner_[i] = -2;
        return;
    }
    compBoundary_.resize(k);
    compPair_.resize(k * k);
    for (std::size_t a = 0; a < k; ++a) {
        compBoundary_[a] = toBoundary_[compIdx_[a]].dist;
        for (std::size_t b = a + 1; b < k; ++b)
            compPair_[a * k + b] =
                pair_[pairIndex(compIdx_[a], compIdx_[b], m)].dist;
    }

    // DP over subsets: best[mask] = min cost to pair up defects in
    // mask (each either with another defect or with the boundary).
    const std::size_t full = (std::size_t{1} << k) - 1;
    best_.assign(full + 1, kInf);
    choice_.assign(full + 1, -1);
    best_[0] = 0.0;
    for (std::size_t mask = 1; mask <= full; ++mask) {
        int i = __builtin_ctzll(mask);
        std::size_t rest = mask ^ (std::size_t{1} << i);
        // Option 1: defect i exits via the boundary.
        if (best_[rest] + compBoundary_[i] < best_[mask]) {
            best_[mask] = best_[rest] + compBoundary_[i];
            choice_[mask] = -2;  // boundary marker
        }
        // Option 2: pair with defect j.
        std::size_t sub = rest;
        while (sub) {
            int j = __builtin_ctzll(sub);
            sub &= sub - 1;
            double c = best_[rest ^ (std::size_t{1} << j)] +
                       compPair_[i * k + j];
            if (c < best_[mask]) {
                best_[mask] = c;
                choice_[mask] = j;
            }
        }
    }
    TRAQ_REQUIRE(best_[full] < kInf,
                 "unmatchable syndrome: the " + std::to_string(k) +
                     " defects around defect " +
                     std::to_string(syn[compIdx_[0]]) +
                     " have no finite perfect matching");

    std::size_t mask = full;
    while (mask) {
        const int i = __builtin_ctzll(mask);
        const int j = choice_[mask];
        mask ^= std::size_t{1} << i;
        if (j == -2) {
            partner_[compIdx_[i]] = -2;
            continue;
        }
        mask ^= std::size_t{1} << j;
        partner_[compIdx_[i]] = static_cast<std::int32_t>(compIdx_[j]);
        partner_[compIdx_[j]] = static_cast<std::int32_t>(compIdx_[i]);
    }
}

} // namespace traq::decoder
