#include "src/sim/frame.hh"

#include <bit>

#include "src/common/assert.hh"
#include "src/sim/frame_kernels.hh"

namespace traq::sim {

void
extractSyndromeBlock(const FrameBatch &batch,
                     std::span<const std::uint64_t> liveMask,
                     SyndromeBlock &out)
{
    kernels::frameKernels(CpuDispatch::Auto)
        .extractBlock(batch, liveMask, out);
}

FrameSimulator::FrameSimulator(std::uint64_t seed, unsigned lanes,
                               CpuDispatch dispatch)
    : st_(seed), lanes_(lanes),
      kernels_(&kernels::frameKernels(dispatch))
{
    TRAQ_REQUIRE(lanes_ >= 1, "frame sim needs at least one lane");
}

FrameBatch
FrameSimulator::sample(const Circuit &circuit)
{
    FrameBatch out;
    sampleInto(circuit, out);
    return out;
}

void
FrameSimulator::sampleInto(const Circuit &circuit, FrameBatch &out)
{
    kernels_->sampleInto(st_, circuit, lanes_, out);
}

std::vector<std::uint64_t>
FrameSimulator::countObservableFlips(const Circuit &circuit,
                                     std::uint64_t minShots,
                                     std::uint64_t *shotsOut)
{
    std::vector<std::uint64_t> counts(circuit.numObservables(), 0);
    std::uint64_t shots = 0;
    FrameBatch batch;
    while (shots < minShots) {
        sampleInto(circuit, batch);
        for (std::size_t k = 0; k < counts.size(); ++k)
            for (unsigned l = 0; l < lanes_; ++l)
                counts[k] += static_cast<std::uint64_t>(
                    std::popcount(batch.observables[k * lanes_ + l]));
        shots += batch.shots();
    }
    if (shotsOut)
        *shotsOut = shots;
    return counts;
}

} // namespace traq::sim
