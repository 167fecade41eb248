/**
 * @file
 * Test-only reference syndrome extractor: the portable scalar
 * two-pass CSR extraction that the runtime-dispatched transpose
 * kernels (src/sim/frame_kernels_impl.hh) are locked against.
 *
 * A counting pass and a fill pass walk only the *set* bits of the
 * detector, observable and herald planes with countr_zero, so it is
 * simple enough to trust by reading.  The library never calls it:
 * sim::extractSyndromeBlock always routes to the transpose kernels.
 */

#ifndef TRAQ_TESTS_SCALAR_EXTRACT_HH
#define TRAQ_TESTS_SCALAR_EXTRACT_HH

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/assert.hh"
#include "src/sim/frame.hh"

namespace traq::testref {

/** Calls fn(plane, shot) for every live set bit of
 *  planes[plane * lanes + lane], plane-major, shots ascending. */
template <typename Fn>
void
forEachSetBit(std::span<const std::uint64_t> planes, std::size_t numPlanes,
              std::span<const std::uint64_t> liveMask, Fn &&fn)
{
    const std::size_t lanes = liveMask.size();
    for (std::size_t p = 0; p < numPlanes; ++p) {
        for (std::size_t l = 0; l < lanes; ++l) {
            std::uint64_t word = planes[p * lanes + l] & liveMask[l];
            while (word) {
                const int s = std::countr_zero(word);
                word &= word - 1;
                fn(p, 64 * l + s);
            }
        }
    }
}

/** Two-pass CSR fill: a counting pass, then a fill pass through a
 *  local per-shot cursor.  Ids ascend with the plane index, so each
 *  shot's list comes out sorted. */
inline void
scatterPlanes(std::span<const std::uint64_t> planes,
              std::size_t numPlanes,
              std::span<const std::uint64_t> liveMask,
              std::uint64_t shots, std::vector<std::uint32_t> &offsets,
              std::vector<std::uint32_t> &ids)
{
    offsets.assign(shots + 1, 0);
    forEachSetBit(planes, numPlanes, liveMask,
                  [&](std::size_t, std::size_t s) { ++offsets[s + 1]; });
    for (std::uint64_t s = 0; s < shots; ++s)
        offsets[s + 1] += offsets[s];
    ids.resize(offsets[shots]);
    std::vector<std::uint32_t> cursor(offsets.begin(),
                                      offsets.end() - 1);
    forEachSetBit(planes, numPlanes, liveMask,
                  [&](std::size_t p, std::size_t s) {
                      ids[cursor[s]++] = static_cast<std::uint32_t>(p);
                  });
}

/** Scalar reference for sim::extractSyndromeBlock: the same fields
 *  (lanes, detector CSR, observable masks, herald CSR). */
inline void
extractSyndromeBlockScalar(const sim::FrameBatch &batch,
                           std::span<const std::uint64_t> liveMask,
                           sim::SyndromeBlock &out)
{
    TRAQ_REQUIRE(batch.lanes >= 1, "batch has no lanes");
    TRAQ_REQUIRE(liveMask.size() == batch.lanes,
                 "liveMask needs one word per lane");
    TRAQ_REQUIRE(batch.numObservables() <= 32,
                 "SyndromeBlock packs observables into 32-bit masks");
    out.lanes = batch.lanes;
    scatterPlanes(batch.detectors, batch.numDetectors(), liveMask,
                  batch.shots(), out.offsets, out.defects);
    scatterPlanes(batch.heralds, batch.numHeraldChannels(), liveMask,
                  batch.shots(), out.heraldOffsets, out.heraldIds);
    out.observables.assign(batch.shots(), 0);
    forEachSetBit(batch.observables, batch.numObservables(), liveMask,
                  [&](std::size_t k, std::size_t s) {
                      out.observables[s] |= 1u << k;
                  });
}

} // namespace traq::testref

#endif // TRAQ_TESTS_SCALAR_EXTRACT_HH
