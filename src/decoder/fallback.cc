#include "src/decoder/fallback.hh"

namespace traq::decoder {

FallbackDecoder::FallbackDecoder(const DecodeGraph &graph,
                                 std::size_t mwpmMaxDefects,
                                 bool predecode, int predecodeRadius,
                                 bool reachCache)
    : Decoder(graph),
      mwpm_(graph, mwpmMaxDefects, /*predecode=*/false,
            /*predecodeRadius=*/2, reachCache),
      uf_(graph)
{
    if (predecode)
        pre_ = std::make_unique<Predecoder>(graph, predecodeRadius);
}

std::uint32_t
FallbackDecoder::decodeEx(std::span<const std::uint32_t> syndrome,
                          const DecodeContext &ctx,
                          std::vector<std::uint32_t> *usedEdges)
{
    // Route on the original syndrome size so predecode on/off pick
    // the same engine (and count fallbacks identically); only then
    // peel and hand the residue down.
    const bool exact = mwpm_.canDecode(syndrome);
    std::uint32_t preCorrection = 0;
    std::span<const std::uint32_t> syn = syndrome;
    if (pre_ && ctx.weights.empty()) {
        preCorrection = pre_->peel(syndrome, ctx, residue_,
                                   usedEdges);
        syn = residue_;
    }
    if (exact)
        return preCorrection ^ mwpm_.decodeEx(syn, ctx, usedEdges);
    ++fallbacks_;
    return preCorrection ^ uf_.decodeEx(syn, ctx, usedEdges);
}

} // namespace traq::decoder
