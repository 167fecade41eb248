/**
 * @file
 * Exact minimum-weight perfect matching decoder for small defect sets.
 *
 * Matching is local.  Pairwise defect distances come from Dijkstra
 * over the shared DecodeGraph (the virtual boundary acts as an
 * always-available partner), but each search is bounded: the
 * searches run from the last defect down to the first, and the one
 * from defect i stops once its frontier passes b_i + max_{j>i} b_j,
 * where b is a defect's boundary reach.  A partner that far away
 * costs at least as much as sending both defects to the boundary, so
 * it can never be matched.  Defects that can beat the boundary
 * together form connected components, and the optimal pairing is
 * found per component by bitmask dynamic programming — cost
 * O(2^k k) in the largest component's size k, not in the syndrome
 * size.  Weights are clamped to >= 0 and carry a strictly positive
 * per-edge tie-break epsilon, so the optimum is unique and the
 * local matching returns exactly what one global search + one
 * global DP would.
 *
 * The defect cap (DecoderConfig::mwpmMaxDefects) still bounds the
 * syndrome size, not the component size: it is the routing contract
 * by which FallbackDecoder sends larger syndromes to union-find, so
 * it fixes outputs, not cost.
 *
 * The extended entry point decodeEx() is what the composite decoders
 * build on: a DecodeContext can reweight edges (correlated two-pass
 * decoding) or hide future rounds (windowed streaming decoding), and
 * the matched correction can be reported as the list of graph edges
 * it traverses — the edge posteriors the correlated decoder feeds
 * back across partner hyperedges.
 *
 * Dijkstra's distance/predecessor arrays are epoch-stamped and its
 * heap and the DP tables are reused members, so a decode allocates
 * nothing warm and clears only what it reaches — the per-worker
 * arena scratch the batch decode path leans on.
 */

#ifndef TRAQ_DECODER_MWPM_HH
#define TRAQ_DECODER_MWPM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/predecode.hh"

namespace traq::decoder {

/**
 * Exact MWPM decoder over the shared decode graph: bounded
 * per-defect searches plus a matching DP per component of defects
 * that can beat the boundary (see the file comment).
 */
class MwpmDecoder final : public Decoder
{
  public:
    /**
     * @param graph decode graph.
     * @param maxDefects largest syndrome size decoded exactly.  The
     *        cap applies to the syndrome as handed in — predecode
     *        peeling never widens what this decoder accepts, so
     *        predecode on/off route identically.
     * @param predecode peel isolated adjacent pairs first (see
     *        Predecoder); off by default.
     * @param predecodeRadius isolation radius for the peeler.
     * @param reachCache share Dijkstra searches across decodes whose
     *        source defect recurs (see the SsspSlot cache below);
     *        bit-identical on/off.  The cache holds at most a fixed
     *        budget of snapshot entries (slots x nodes) per
     *        decoder.  Off by default at the class level; the
     *        factory resolves DecoderConfig::reachCache /
     *        TRAQ_REACH_CACHE (default on).
     */
    explicit MwpmDecoder(const DecodeGraph &graph,
                         std::size_t maxDefects = 18,
                         bool predecode = false,
                         int predecodeRadius = 2,
                         bool reachCache = false);

    /** True if this syndrome is within the exact-decoding cap. */
    bool canDecode(std::span<const std::uint32_t> syndrome) const
    {
        return syndrome.size() <= maxDefects_;
    }

    /**
     * Decode under a context (reweighted edges and/or a round
     * horizon).  Throws FatalError above the cap (use
     * FallbackDecoder when syndromes may exceed it) and when the
     * syndrome cannot be matched at all — e.g. a defect whose every
     * edge a round horizon hides.  If usedEdges is non-null the
     * edges traversed by the matched correction are appended to it
     * (unsorted, duplicates possible when two paths share an edge).
     */
    std::uint32_t
    decodeEx(std::span<const std::uint32_t> syndrome,
             const DecodeContext &ctx,
             std::vector<std::uint32_t> *usedEdges);

    void reset() override
    {
        if (pre_)
            pre_->reset();
        invalidateReachCache();
    }

    /** Dijkstra searches answered from the reach cache. */
    std::uint64_t reachCacheHits() const { return cacheHits_; }

    /** Most sources the reach cache can snapshot on this graph (0
     *  with the cache off): the fixed entry budget over numNodes(). */
    std::size_t reachCacheSlotCapacity() const;

    /** Drop every cached single-source search (epoch bump). */
    void invalidateReachCache();
    const char *name() const override { return "mwpm"; }
    std::uint64_t predecodedPairs() const override
    {
        return pre_ ? pre_->pairsPeeled() : 0;
    }

  private:
    std::uint32_t decodeImpl(std::span<const std::uint32_t> syndrome,
                             const DecodeContext &ctx) override
    {
        return decodeEx(syndrome, ctx, nullptr);
    }

    std::size_t maxDefects_;
    std::unique_ptr<Predecoder> pre_;
    std::vector<std::uint32_t> residue_;  //!< post-peel syndrome

    std::vector<double> eps_;     //!< per-edge tie-break epsilon
    std::vector<double> weight_;  //!< default metric: clamped + eps_

    // Epoch-stamped Dijkstra scratch: dist_/fromEdge_ entries are
    // valid only when distStamp_ matches the current search's epoch.
    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> distStamp_;
    std::vector<double> dist_;
    std::vector<std::int32_t> fromEdge_;
    /** Binary min-heap of (distance, node), reused across searches. */
    std::vector<std::pair<double, std::uint32_t>> heap_;

    struct Reach
    {
        double dist = 0.0;
        std::uint32_t obs = 0;
        /** Graph edges of the shortest path (empty if unreachable). */
        std::vector<std::uint32_t> edges;
    };

    // Reused per-decode tables (entries keep their capacity warm).
    // pair_ is the strict upper triangle, row-major: the DP only
    // reads pair (i, j) with i < j (see pairIndex()).  A pair that
    // cannot beat sending both defects to the boundary holds kInf.
    std::vector<Reach> pair_;
    std::vector<Reach> toBoundary_;
    std::vector<std::uint32_t> adj_;        //!< compatible-partner bits
    std::vector<std::int32_t> partner_;     //!< matched defect or -2
    std::vector<std::uint32_t> compIdx_;    //!< component's defects
    std::vector<double> compBoundary_;      //!< ... their b_i
    std::vector<double> compPair_;          //!< ... dense k x k dists
    std::vector<double> best_;
    std::vector<std::int32_t> choice_;

    /**
     * Reach cache: a snapshot of one full single-source Dijkstra
     * (distance + predecessor edge per node, plus the best boundary
     * exit).  Defect positions recur heavily across the shots of a
     * batch — especially once the engine sorts shots by defect count
     * — so the search from a recurring source is answered by reading
     * the snapshot instead of re-running the heap.  Valid only for
     * the default context (no weight overrides, no round horizon):
     * context decodes bypass the cache entirely, which is what keeps
     * correlated/windowed passes exact.  Slots are epoch-stamped;
     * invalidateReachCache() bumps the epoch instead of clearing
     * per-node state.  Snapshots are full (unbounded) searches so
     * one slot serves every later syndrome the source appears in.
     */
    struct SsspSlot
    {
        std::vector<double> dist;          //!< kInf where unreached
        std::vector<std::int32_t> fromEdge;
        double boundaryDist = 0.0;
        std::int32_t boundaryNode = -1;
        std::int32_t boundaryEdge = -1;
    };
    bool reachCache_ = false;
    std::uint32_t cacheEpoch_ = 1;
    std::uint64_t cacheHits_ = 0;
    std::vector<std::uint32_t> cacheStampOf_; //!< per node
    std::vector<std::uint32_t> cacheSlotOf_;  //!< valid when stamped
    std::vector<SsspSlot> slots_;

    // Best boundary exit found by the latest searchFrom().
    double searchBoundaryDist_ = 0.0;
    std::int32_t searchBoundaryNode_ = -1;
    std::int32_t searchBoundaryEdge_ = -1;

    /** Index of pair (i, j), i < j, in the upper triangle of m. */
    static std::size_t
    pairIndex(std::size_t i, std::size_t j, std::size_t m)
    {
        return i * (2 * m - i - 1) / 2 + (j - i - 1);
    }

    /**
     * The heap loop: single-source Dijkstra from a defect into the
     * epoch-stamped scratch and the searchBoundary*_ members,
     * honoring the context's weights and round horizon.  Stops once
     * the heap's minimum reaches the best boundary exit plus
     * `slack`: the boundary exit is then final, and so is every node
     * closer than the stop key.  slack = kInf runs the full search.
     */
    void searchFrom(std::uint32_t source, const DecodeContext &ctx,
                    double slack);

    /** Cached search: snapshot a full search on first use of a
     *  source, then answer from the slot. */
    const SsspSlot &ensureSlot(std::uint32_t source,
                               const DecodeContext &ctx);

    /**
     * Fill toBoundary_[i] and the pair_ row of defect i (targets
     * j > i, whose boundary reach must already be known) from a
     * distance/predecessor store (scratch or slot).  Pairs that
     * cannot beat the boundary are stored as kInf without a path.
     */
    template <class DistFn, class EdgeFn>
    void fillReaches(std::span<const std::uint32_t> syn, std::size_t i,
                     bool wantEdges, DistFn distOf, EdgeFn fromEdgeOf,
                     double boundaryDist, std::int32_t boundaryNode,
                     std::int32_t boundaryEdge);

    /** Optimal matching of one component (bit set over syndrome
     *  indices) into partner_. */
    void matchComponent(std::span<const std::uint32_t> syn,
                        std::uint32_t comp);
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_MWPM_HH
