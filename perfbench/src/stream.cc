#include "stream.hh"

#include <charconv>
#include <cmath>
#include <unordered_set>

#include "stats.hh"

namespace perfbench {

namespace {

/** Seeded draws; everything below is a pure function of the seed. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : state_(seed) {}

    std::uint64_t bits() { return splitmix64(state_); }
    double uniform() { return (bits() >> 11) * 0x1.0p-53; }
    /** Integer in [0, n); the modulo bias is irrelevant at these n. */
    std::uint64_t below(std::uint64_t n) { return bits() % n; }
    double logUniform(double lo, double hi)
    {
        return lo * std::pow(hi / lo, uniform());
    }

  private:
    std::uint64_t state_;
};

/** Shortest round-trip decimal: the same double, the same text. */
std::string
num(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** One closed-form estimator request, parameters drawn in ranges
 *  every estimator accepts. */
std::string
closedFormLine(Draw &d)
{
    switch (d.below(4)) {
      case 0:
        return "{\"kind\":\"gidney-ekera\",\"params\":{\"tReaction\":" +
               num(d.logUniform(1e-6, 1e-3)) + "}}";
      case 1:
        return "{\"kind\":\"idle-storage\",\"params\":{\"distance\":" +
               num(std::uint64_t{11} + 2 * d.below(13)) +
               ",\"sePeriod\":" + num(d.logUniform(1e-4, 1e-2)) +
               "}}";
      case 2:
        return "{\"kind\":\"factory-design\",\"params\":{"
               "\"targetCczError\":" +
               num(d.logUniform(1e-12, 1e-6)) + "}}";
      default:
        return "{\"kind\":\"factoring\",\"params\":{"
               "\"logicalErrorBudget\":" +
               num(d.logUniform(0.05, 0.3)) +
               ",\"rsep\":" + num(std::uint64_t{64} + d.below(129)) +
               "}}";
    }
}

} // namespace

double
Stream::uniqueRatio() const
{
    return lines.empty() ? 0.0
                         : static_cast<double>(uniqueLines) /
                               static_cast<double>(lines.size());
}

double
Stream::mcShare() const
{
    return lines.empty() ? 0.0
                         : static_cast<double>(mcLines) /
                               static_cast<double>(lines.size());
}

Stream
makeStream(const StreamSpec &spec, std::uint64_t seed)
{
    Draw d(seed);
    Stream s;
    s.closed = spec.closedLines;
    const std::size_t total = spec.closedLines + spec.openLines;
    s.lines.reserve(total);
    s.isMc.reserve(total);
    std::unordered_set<std::string> seen;
    std::vector<std::size_t> closedForm; // indices repeats draw from
    for (std::size_t i = 0; i < total; ++i) {
        const double u = d.uniform();
        std::string line;
        bool mc = false;
        // Line 0, the set-up probe, is always closed-form.
        if (i > 0 && u < spec.mcShare) {
            mc = true;
            // 31-bit seeds: exact as JSON doubles, unique per line.
            std::uint64_t mcSeed;
            do {
                mcSeed = d.bits() >> 33;
                line = "{\"kind\":\"mc-logical-error\",\"params\":{" +
                       spec.mcParams + ",\"seed\":" + num(mcSeed) +
                       ",\"shots\":" + num(spec.mcLineShots) + "}}";
            } while (seen.count(line));
        } else if (u < spec.mcShare + spec.repeatShare &&
                   !closedForm.empty()) {
            line = s.lines[closedForm[d.below(closedForm.size())]];
            ++s.repeatLines;
        } else {
            do
                line = closedFormLine(d);
            while (seen.count(line));
            closedForm.push_back(i);
        }
        s.mcLines += mc;
        seen.insert(line);
        s.isMc.push_back(mc);
        s.lines.push_back(std::move(line));
    }
    s.uniqueLines = seen.size();
    return s;
}

} // namespace perfbench
